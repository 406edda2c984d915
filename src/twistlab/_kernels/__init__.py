"""Hot word kernels: free reduction, free multiplication and the BS(n,n) normal form."""

from ._pyops import IMPL, bs_mul, bs_normalize, free_mul, free_reduce

__all__ = ["IMPL", "bs_mul", "bs_normalize", "free_mul", "free_reduce"]
