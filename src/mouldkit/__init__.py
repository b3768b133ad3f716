# mouldkit: exact symbolic computation with moulds, mould symmetries, and
# the double shuffle / Kashiwara-Vergne Lie algebra membership conditions.

__version__ = "0.1.0"

# the term kernels in mouldkit._speed are plain Python; there is no other backend
backend_name = "pure"

__all__ = ["backend_name", "__version__"]
