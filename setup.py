"""Package metadata and install script.

Install for development with
``pip install -e . --no-use-pep517 --no-build-isolation``: the legacy
``setup.py develop`` path builds no wheel (PEP 660 editable installs
do), though pip 23.1 and later refuse ``--no-use-pep517`` unless both
``setuptools`` and ``wheel`` are importable.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "High-level synthesis performance prediction with graph neural networks"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
