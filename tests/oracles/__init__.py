"""Reference implementations the tests compare the package against, and the
scalar loss the gradient tests put on top of an op."""

import numpy as np

from turntaking import autodiff as ad


def total(t: ad.Tensor, w) -> ad.Tensor:
    """sum(t * w) as a (1, 1) product, for constant weights w (an array of t's shape, or a scalar)."""
    return ad.matmul(ad.reshape(t, (1, -1)), ad.constant(np.broadcast_to(w, t.shape).reshape(-1, 1)))
