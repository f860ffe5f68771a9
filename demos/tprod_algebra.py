"""
T-product algebra and the block circulant correspondence
========================================================

The T-product of third-order tensors is ordinary matrix multiplication of
their block circulant matrices, folded back to a tensor.  `tprod` computes a
small product (at most 2**15 multiply-adds, m*n*q*p**2) as one matmul against
the block circulant of its right factor, and a larger one slice by slice in
the transform domain.  This script shows that both routes agree with the
literal block circulant product `tprod_direct`, and tours the algebraic laws.
"""

import numpy as np

from tsvdkit import (
    bcirc,
    frobenius_norm,
    identity_tensor,
    is_orthogonal,
    random_orthogonal,
    tinverse,
    tprod,
    tprod_direct,
    transpose,
    unfold,
)

rng = np.random.default_rng(0)
a = rng.standard_normal((3, 2, 4))
b = rng.standard_normal((2, 5, 4))

# The (m*p) x (n*p) block circulant matrix: first block column stacks the
# frontal slices, later block columns are cyclic shifts.
print("bcirc(a) shape:", bcirc(a).shape)
print("first block column == unfold(a):",
      np.array_equal(bcirc(a)[:, :2], unfold(a)))

# Both routes of tprod vs. the literal block circulant product.  a * b takes
# 3*2*5*4**2 = 480 multiply-adds, so it runs as one block circulant matmul; an
# 8x8x12 product takes 8*8*8*12**2 = 73728 > 2**15 and goes through the transform.
print("block-circulant matmul route vs. tprod_direct:",
      frobenius_norm(tprod(a, b) - tprod_direct(a, b)), "(difference)")
big_a = rng.standard_normal((8, 8, 12))
big_b = rng.standard_normal((8, 8, 12))
print("transform route vs. tprod_direct:",
      frobenius_norm(tprod(big_a, big_b) - tprod_direct(big_a, big_b)), "(difference)")

# Identity element and transpose reversal.
ident = identity_tensor(2, 4)
print("a * I == a:", frobenius_norm(tprod(a, ident) - a))
lhs = transpose(tprod(a, b))
rhs = tprod(transpose(b), transpose(a))
print("(a * b)^T == b^T * a^T:", frobenius_norm(lhs - rhs))

# Orthogonal tensors: q^T is the inverse, and products with q preserve norms.
q = random_orthogonal(3, 4, seed=42)
print("q orthogonal:", is_orthogonal(q))
print("tinverse(q) == q^T:", frobenius_norm(tinverse(q) - transpose(q)))
print("||q * a|| == ||a||:",
      abs(frobenius_norm(tprod(q, a)) - frobenius_norm(a)))

# Well-conditioned square tensors invert; the inverse multiplies to identity
# from both sides.
c = rng.standard_normal((3, 3, 4)) + 2.0 * identity_tensor(3, 4)
c_inv = tinverse(c)
ident3 = identity_tensor(3, 4)
print("c * c^-1 == I:", frobenius_norm(tprod(c, c_inv) - ident3))
print("c^-1 * c == I:", frobenius_norm(tprod(c_inv, c) - ident3))
