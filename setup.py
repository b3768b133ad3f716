# Legacy setup.py path for toolchains too old to read the [project] table
# of pyproject.toml; name/package_dir repeat it on purpose.
from setuptools import find_packages, setup

setup(
    name="mouldkit",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["mouldkit = mouldkit.cli:main"]},
)
