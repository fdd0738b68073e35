"""Legacy setup shim: lets `pip install -e .` work offline (no wheel pkg)."""
from setuptools import setup

setup(install_requires=["numpy"])
