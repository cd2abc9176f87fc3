"""Package metadata and setup (offline-friendly: no pyproject.toml).

`pip install -e . --no-use-pep517 --no-build-isolation` installs the
`repro` package from `src/`.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
