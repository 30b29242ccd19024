"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-free engine: every op returns a `Tensor` node holding its value,
its parent nodes and a vector-Jacobian closure. `Tensor.backward()` walks the
graph in reverse topological order and accumulates gradients into `.grad`. A
`Tensor`'s only operators are `t + u` (`add`), `t * u` and `c * t` (`mul`).

A `Tensor` is a node that takes a gradient; a constant, a Python scalar or
numpy array read by value as float64 (`value_of`), is an operand that makes
no node: it is no parent, and the vjp gives gradients for the parents only.
An op on constants alone returns a parentless `Tensor`. `.value` detaches a
node, and evaluation runs the same ops and drops the graph. Image
ops (`conv2d`, `upsample_conv2d`) take (N, C, H, W) batches; one image is a
batch of one. `conv2d` gathers its input's patches (`_im2col`) and scatters
their gradients back (`_col2im`, the adjoint); the decoder block
`upsample_conv2d`, the transpose of a stride-2 conv, runs the pair the other
way round. The scatter is one `np.bincount` over the positions `_im2col`
reads, which `_scatter_index` builds once per geometry and keeps in a
bounded `functools.lru_cache`. An op outside this module is built the same
way, from its value, its operands and a hand-written vjp (`node`); the
losses are.

Each node costs a fixed amount of Python work, so the layers are fused
ops: `affine` is x @ w + b, and `affine`, `conv2d` and `upsample_conv2d`
take an activation (`act="tanh"` or `"sigmoid"`) whose vjp scales `g` by
the derivative before the linear vjp. A fused op computes the same floats
in the same order as the composition of the small ops it replaces, so its
value and gradients are bit-identical to theirs.

Everything is float64. Every node raises on a non-finite value, so a NaN is
caught where it appears instead of poisoning the whole step. A fused
activation checks its pre-activation instead, so that an overflow is not
squashed to a finite value; tanh and sigmoid of a finite array are finite,
so its output is not checked again. A non-finite constant is caught by the
node that reads it, wherever it makes that node's value non-finite (a
finite value divided by an infinite constant gives 0).
"""

import functools
import math

import numpy as np


def _all_finite(v):
    """Whether every entry of float64 array `v` is finite.

    `np.isfinite` classifies the entries without arithmetic, so it sets no
    floating-point flag and warns or raises under no `np.errstate` or
    warnings filter. A finite sum of the entries would prove the same, but
    the sum can overflow on finite entries, and guarding it with
    `np.errstate` costs more per call than this check.
    """
    return bool(np.isfinite(v).all())


class Tensor:
    """Array node of the computation graph; every node takes a gradient."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    # make `ndarray * Tensor` defer to `Tensor.__rmul__`
    __array_ufunc__ = None

    def __init__(self, value, _parents=(), _vjp=None, _finite=False):
        self.value = np.asarray(value, dtype=np.float64)
        if not (_finite or _all_finite(self.value)):
            raise FloatingPointError("non-finite values entering the graph")
        self.grad = None
        self._parents = tuple(_parents)
        self._vjp = _vjp if self._parents else None

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    # -- autodiff -----------------------------------------------------------
    def backward(self, seed=None):
        """Accumulate gradients of `self` w.r.t. every upstream tensor.

        `seed` defaults to 1 and requires a scalar output. Leaf gradients
        accumulate across calls; interior nodes start each call from zero,
        so several outputs of one graph can be backpropagated in turn.
        """
        if seed is None:
            if self.value.size != 1:
                raise ValueError("backward() without seed needs a scalar output")
            seed = np.ones_like(self.value)
        order = _toposort(self)
        for t in order:
            if t._parents:
                t.grad = None
        self.grad = np.asarray(seed, dtype=np.float64)
        for t in reversed(order):
            if t._vjp is None or t.grad is None:
                continue
            grads = t._vjp(t.grad)
            for parent, g in zip(t._parents, grads):
                if g is not None:
                    parent.grad = g if parent.grad is None else parent.grad + g

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


def _toposort(root):
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        for p in t._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def value_of(x):
    """An operand's array: a `Tensor`'s value, or a constant as float64."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def node(value, operands, vjp, _finite=False):
    """The node of `value`, computed from `operands`: how every op makes its
    node.

    `vjp` maps the output gradient to one gradient per operand, None for a
    constant (an operand that is not a `Tensor`). The `Tensor` operands
    become the parents, in order; a constant's slot is dropped from the
    gradients, so the node's vjp gives one gradient per parent. `_finite`
    (this module's fused ops only) skips the node's finiteness check for a
    value `_activate` has already vouched for.
    """
    for x in operands:
        if not isinstance(x, Tensor):
            break
    else:
        return Tensor(value, operands, vjp, _finite)
    return Tensor(value, [x for x in operands if isinstance(x, Tensor)],
                  lambda g: [d for x, d in zip(operands, vjp(g)) if isinstance(x, Tensor)],
                  _finite)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b):
    return node(value_of(a) + value_of(b), (a, b), lambda g: (
        _unbroadcast(g, a.value.shape) if isinstance(a, Tensor) else None,
        _unbroadcast(g, b.value.shape) if isinstance(b, Tensor) else None,
    ))


def sub(a, b):
    return node(value_of(a) - value_of(b), (a, b), lambda g: (
        _unbroadcast(g, a.value.shape) if isinstance(a, Tensor) else None,
        _unbroadcast(-g, b.value.shape) if isinstance(b, Tensor) else None,
    ))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    return node(av * bv, (a, b), lambda g: (
        _unbroadcast(g * bv, av.shape) if isinstance(a, Tensor) else None,
        _unbroadcast(g * av, bv.shape) if isinstance(b, Tensor) else None,
    ))


def div(a, b):
    av, bv = value_of(a), value_of(b)
    return node(av / bv, (a, b), lambda g: (
        _unbroadcast(g / bv, av.shape) if isinstance(a, Tensor) else None,
        _unbroadcast(-g * av / (bv * bv), bv.shape) if isinstance(b, Tensor) else None,
    ))


def power(a, p):
    """Elementwise a**p for a constant scalar exponent."""
    av, p = value_of(a), float(p)
    if p == 0.0:
        return node(np.ones_like(av), (a,), lambda g: (np.zeros_like(av),))
    return node(av**p, (a,), lambda g: (g * p * av ** (p - 1.0),))


def exp(a):
    val = np.exp(value_of(a))
    return node(val, (a,), lambda g: (g * val,))


def log(a):
    av = value_of(a)
    return node(np.log(av), (a,), lambda g: (g / av,))


def _tanh(v):
    val = np.tanh(v)
    return val, lambda g: g * (1.0 - val * val)


def _sigmoid(v):
    val = 1.0 / (1.0 + np.exp(-v))
    return val, lambda g: g * val * (1.0 - val)


# activation name -> f(pre) giving the activated array and the map from an
# output gradient to the pre-activation gradient
_ACTIVATIONS = {"tanh": _tanh, "sigmoid": _sigmoid}


def tanh(a):
    val, back = _tanh(value_of(a))
    return node(val, (a,), lambda g: (back(g),))


def sigmoid(a):
    val, back = _sigmoid(value_of(a))
    return node(val, (a,), lambda g: (back(g),))


def _activate(pre, act):
    """The epilogue of a fused op: `act` (None, "tanh" or "sigmoid") of the
    pre-activation array, and the map from an output gradient to the
    pre-activation gradient (None without an activation). A non-finite
    pre-activation raises here, before the activation can squash it; a
    finite one gives a finite activation, so the fused op's node skips its
    own check when `back` is not None."""
    if act is None:
        return pre, None
    if act not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}")
    if not _all_finite(pre):
        raise FloatingPointError("non-finite pre-activation")
    return _ACTIVATIONS[act](pre)


def absolute(a):
    """|a| with sign subgradient (0 at the kink)."""
    av = value_of(a)
    return node(np.abs(av), (a,), lambda g: (g * np.sign(av),))


def clip(a, lo, hi):
    """Clamp to [lo, hi]; gradient is passed only strictly inside the interval."""
    av = value_of(a)
    inside = (av > lo) & (av < hi)
    return node(np.clip(av, lo, hi), (a,), lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# reductions / shape ops
# ---------------------------------------------------------------------------

def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    av = value_of(a)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    return node(av.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def mean(a, axis=None, keepdims=False):
    """Mean over `axis` as one node: `sum` then division by the count, the
    vjp broadcasting `g / n` back."""
    av = value_of(a)
    if axis is None:
        n = av.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= av.shape[ax]
    n = float(n)

    def vjp(g):
        g = g / n
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    return node(av.sum(axis=axis, keepdims=keepdims) / n, (a,), vjp)


def reshape(a, shape):
    av = value_of(a)
    return node(av.reshape(shape), (a,), lambda g: (g.reshape(av.shape),))


def transpose(a, axes=None):
    """Permute the axes as `np.transpose` does (reversed by default)."""
    back = None if axes is None else tuple(np.argsort(axes))
    return node(value_of(a).transpose(axes), (a,), lambda g: (g.transpose(back),))


def concat(parts, axis=0):
    values = [value_of(p) for p in parts]
    cut = np.cumsum([0] + [v.shape[axis] for v in values]).tolist()

    def vjp(g):
        return tuple(np.ascontiguousarray(g.swapaxes(0, axis)[i:j].swapaxes(0, axis))
                     if isinstance(p, Tensor) else None for p, i, j in zip(parts, cut, cut[1:]))

    return node(np.concatenate(values, axis=axis), parts, vjp)


def stack(parts):
    """Stack equal-shape operands along a new leading axis."""
    return node(np.stack([value_of(p) for p in parts]), parts,
                 lambda g: tuple(g[i] for i in range(len(parts))))


def take_rows(a, idx):
    """Select rows of a 2-D operand by integer index array."""
    av, idx = value_of(a), np.asarray(idx, dtype=np.int64)

    def vjp(g):
        out = np.zeros_like(av)
        np.add.at(out, idx, g)
        return (out,)

    return node(av[idx], (a,), vjp)


def crop(a, y0, y1, x0, x1):
    """Spatial crop of a (C, H, W) operand."""
    av = value_of(a)

    def vjp(g):
        out = np.zeros_like(av)
        out[:, y0:y1, x0:x1] = g
        return (out,)

    return node(av[:, y0:y1, x0:x1], (a,), vjp)


def matmul(a, b):
    av, bv = value_of(a), value_of(b)

    def vjp(g):
        # a 1-D left operand is a (1, D) row and a 1-D right operand a (D, 1)
        # column; 2-D operands pass through these reshapes unchanged
        a2 = av.reshape(-1, av.shape[-1])
        b2 = bv.reshape(bv.shape[0], -1)
        g = g.reshape(a2.shape[0], b2.shape[1])
        return (
            (g @ b2.T).reshape(av.shape) if isinstance(a, Tensor) else None,
            (a2.T @ g).reshape(bv.shape) if isinstance(b, Tensor) else None,
        )

    return node(av @ bv, (a, b), vjp)


def affine(x, w, b, act=None):
    """`act` (None, "tanh" or "sigmoid") of x @ w + b as one node: `matmul`
    then `add`, for (D,) or (P, D) rows `x`, a (D, O) `w` and an (O,) `b`.
    The vjp scales `g` by the activation's derivative, then gives the
    matmul's and the add's gradients."""
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    val, back = _activate(xv @ wv + bv, act)

    def vjp(g):
        if back is not None:
            g = back(g)
        # a (D,) `x` is one (1, D) row; (P, D) rows pass through unchanged
        x2 = xv.reshape(-1, xv.shape[-1])
        g2 = g.reshape(x2.shape[0], wv.shape[1])
        return (
            (g2 @ wv.T).reshape(xv.shape) if isinstance(x, Tensor) else None,
            x2.T @ g2 if isinstance(w, Tensor) else None,
            _unbroadcast(g, bv.shape) if isinstance(b, Tensor) else None,
        )

    return node(val, (x, w, b), vjp, _finite=back is not None)


# ---------------------------------------------------------------------------
# structured ops
# ---------------------------------------------------------------------------

def _im2col(xp, kh, kw, stride, oh, ow):
    """(N, C*kh*kw, oh*ow) patch stack of a C-contiguous (N, C, H, W) array
    of any dtype: a strided window view over its buffer, reshaped. The
    reshape copies unless the windows already tile the buffer in order (a
    1x1 stride-1 kernel), in which case the stack is a view of `xp`; callers
    only read it. `conv2d`'s forward and the decoder block's vjp gather
    here, `_scatter_index` gathers the positions, and `_col2im` scatters
    back."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    windows = np.ndarray((n, c, kh, kw, oh, ow), xp.dtype, xp, 0,
                         (sn, sc, sh, sw, sh * stride, sw * stride))
    return windows.reshape(n, c * kh * kw, oh * ow)


def _pad(a, pad):
    """`a` with `pad` rows and columns of zeros around its trailing two axes,
    the array `_im2col` gathers from. At pad 0 it returns `a` itself, made
    C-contiguous (a copy only if it was not)."""
    if pad == 0:
        return np.ascontiguousarray(a)
    h, w = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (h + 2 * pad, w + 2 * pad), dtype=np.float64)
    out[..., pad : pad + h, pad : pad + w] = a
    return out


@functools.lru_cache(maxsize=32)
def _scatter_index(shape, kh, kw, stride):
    """Read-only flat positions in a zeroed (N, C, Hp, Wp) buffer `shape` of
    every entry of `_im2col`'s patch stack, in its (n, c, i, j, y, x) order:
    `_im2col` of an integer `arange` of the buffer. It depends only on the
    geometry, so it is built once per geometry and cached."""
    oh, ow = (shape[2] - kh) // stride + 1, (shape[3] - kw) // stride + 1
    index = _im2col(np.arange(math.prod(shape)).reshape(shape), kh, kw, stride, oh, ow).reshape(-1)
    index.flags.writeable = False
    return index


def _col2im(cols, kh, kw, stride, h, w, pad):
    """(N, C, h, w) adjoint of `_im2col` of the `_pad`-ded array: every entry
    of an (N, C*kh*kw, oh*ow) patch stack `cols` added where `_im2col` read
    it, then cropped. `conv2d`'s vjp and the decoder's forward scatter here.

    The scatter is one `np.bincount` over the cached `_scatter_index`. It
    adds its weights in array order into a zeroed float64 accumulator, so
    each cell gets its taps in (i, j)-ascending order starting from 0.0:
    the order of one strided add per tap into a zeroed buffer, so the sums
    are bit for bit those of that loop. A 1x1 stride-1 kernel's patches
    tile the buffer, so the scatter is the identity and the result is a
    view of `cols`, as `_im2col`'s stack is of its input there; a -0.0
    entry then stays -0.0 instead of becoming 0.0 + -0.0 = 0.0."""
    n, hp, wp = len(cols), h + 2 * pad, w + 2 * pad
    if kh == kw == stride == 1:
        out = cols.reshape(n, -1, hp, wp)
    else:
        shape = (n, cols.shape[1] // (kh * kw), hp, wp)
        out = np.bincount(_scatter_index(shape, kh, kw, stride), weights=cols.reshape(-1),
                          minlength=math.prod(shape)).reshape(shape)
    return out[..., pad : pad + h, pad : pad + w]


def conv2d(x, w, b, stride=1, pad=1, act=None):
    """2-D convolution of an (N, C, H, W) batch, giving (N, O, oh, ow), with
    an optional activation `act` ("tanh" or "sigmoid") of its output.

    The kernel is shared, (O, C, kh, kw) with an (O,) bias, or one per
    image: an (N, O, C, kh, kw) stack with (N, O) biases, or a sequence of N
    (O, C, kh, kw) kernels with a sequence of N (O,) biases, each its own
    operand. All take one code path: the batch is an image-major
    (N, C*kh*kw, oh*ow) patch stack (`_im2col`), the forward one `np.matmul`
    of the (1 or N, O, C*kh*kw) kernels with it, broadcast over the images,
    whose (N, O, oh*ow) result is already in output order. The vjp scales
    `g` by the activation's derivative, then reads it as (N, O, oh*ow) the
    same way; the weight and bias gradients are summed over the images for
    a shared kernel. The input gradient, computed only when `x` is a
    `Tensor`, is one `np.matmul` of the transposed kernels with `g`, whose
    patch gradients `_col2im` scatters back to where `_im2col` read them.
    """
    per_image = isinstance(w, (list, tuple))
    xv = value_of(x)
    if per_image:
        wv, bv = np.array([value_of(k) for k in w]), np.array([value_of(k) for k in b])
    else:
        wv, bv = value_of(w), value_of(b)
    o, c, kh, kw = wv.shape[-4:]
    if xv.ndim != 4:
        raise ValueError(f"conv2d takes an (N, C, H, W) batch, not shape {xv.shape}")
    n, cx, h, wd = xv.shape
    if cx != c:
        raise ValueError(f"conv2d channel mismatch: input {cx}, kernel {c}")
    if wv.ndim == 5 and wv.shape[0] != n:
        raise ValueError(f"conv2d kernel stack of {wv.shape[0]} for {n} images")
    if bv.shape != wv.shape[:-3]:
        raise ValueError(f"conv2d bias shape {bv.shape} for kernels {wv.shape}")
    ints = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in (stride, pad))
    if not (ints and stride >= 1 and pad >= 0 and h + 2 * pad >= kh and wd + 2 * pad >= kw):
        raise ValueError("conv2d needs an integer stride >= 1 and pad >= 0 that leave an output "
                         f"position: {h}x{wd} input, {kh}x{kw} kernel, stride {stride!r}, pad {pad!r}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    cols = _im2col(_pad(xv, pad), kh, kw, stride, oh, ow)
    kern = wv.reshape(-1, o, c * kh * kw)
    out, back = _activate((np.matmul(kern, cols)
                           + bv.reshape(-1, o, 1)).reshape(n, o, oh, ow), act)

    def vjp(g):
        if back is not None:
            g = back(g)
        gb = g.reshape(n, o, oh * ow)
        dw = np.matmul(gb, cols.transpose(0, 2, 1))
        db = gb.sum(axis=2)
        if wv.ndim == 4:
            dw, db = dw.sum(axis=0), db.sum(axis=0)
        dx = (_col2im(np.matmul(kern.transpose(0, 2, 1), gb), kh, kw, stride, h, wd, pad)
              if isinstance(x, Tensor) else None)
        if per_image:
            return (dx, *dw.reshape(wv.shape), *db)
        return (dx, dw.reshape(wv.shape), db)

    return node(out, (x, *w, *b) if per_image else (x, w, b), vjp, _finite=back is not None)


def upsample2x(a):
    """Nearest-neighbour 2x upsampling of the last two axes."""
    av = value_of(a)
    *lead, h, w = av.shape

    def vjp(g):
        return (g.reshape(*lead, h, 2, w, 2).sum(axis=(-3, -1)),)

    return node(av.repeat(2, axis=-2).repeat(2, axis=-1), (a,), vjp)


# per axis, source row y of a nearest 2x upsampling's pad-1 conv reaches rows
# 2y-1 .. 2y+2 by taps (w2, w1+w2, w0+w1, w0); the (16, 9) fold of a 3x3 kernel
# into its 4x4 kernel is the Kronecker square of that (4, 3) map
_UPSAMPLE_FOLD = np.kron(*2 * [np.array([[0, 0, 1], [0, 1, 1], [1, 1, 0], [1, 0, 0]], np.float64)])


def upsample_conv2d(x, w, b, act=None):
    """3x3 stride-1 pad-1 convolution with (O, C, 3, 3) kernels `w` and an
    (O,) bias `b` of the nearest 2x upsampling of an (N, C, H, W) batch,
    giving (N, O, 2H, 2W); equal to `conv2d(upsample2x(x), w, b, act=act)`.

    It is the transpose of a stride-2 pad-1 `conv2d` from O to C channels
    whose 4x4 kernels fold each 3x3 kernel per axis (`_UPSAMPLE_FOLD`), so
    it runs at input resolution on conv2d's own pair: the forward is one
    `np.matmul` of the folded kernels with x, scattered by `_col2im`. The
    vjp scales `g` by the activation's derivative and runs that conv's
    forward on it: `_im2col` of the pad-1 `g`, then one `np.matmul` each for
    the input gradient and the 4x4 weight gradient, folded back to 3x3.
    """
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    o, c, kh, kw = wv.shape
    if (kh, kw) != (3, 3):
        raise ValueError("upsample_conv2d needs 3x3 kernels")
    if xv.ndim != 4:
        raise ValueError(f"upsample_conv2d takes an (N, C, H, W) batch, not shape {xv.shape}")
    n, cx, h, wd = xv.shape
    if h < 1 or wd < 1:
        raise ValueError(f"upsample_conv2d has no output position: {h}x{wd} input")
    if cx != c:
        raise ValueError(f"upsample_conv2d channel mismatch: input {cx}, kernel {c}")
    if bv.shape != (o,):
        raise ValueError(f"upsample_conv2d bias shape {bv.shape} for kernels {wv.shape}")
    # (O*4*4, C): the stride-2 conv's (C, O, 4, 4) kernels, transposed
    kern = (_UPSAMPLE_FOLD @ wv.transpose(0, 2, 3, 1).reshape(o, 9, c)).reshape(16 * o, c)
    xb = xv.reshape(n, c, h * wd)
    out, back = _activate(_col2im(np.matmul(kern, xb), 4, 4, 2, 2 * h, 2 * wd, 1)
                          + bv[:, None, None], act)

    def vjp(g):
        if back is not None:
            g = back(g)
        cols = _im2col(_pad(g, 1), 4, 4, 2, h, wd)
        dx = np.matmul(kern.T, cols).reshape(xv.shape) if isinstance(x, Tensor) else None
        dkern = np.matmul(cols, xb.transpose(0, 2, 1)).sum(axis=0)
        dw = (_UPSAMPLE_FOLD.T @ dkern.reshape(o, 16, c)).reshape(o, 3, 3, c).transpose(0, 3, 1, 2)
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    return node(out, (x, w, b), vjp, _finite=back is not None)


def grl(a, lam):
    """Gradient reversal: identity forward, upstream gradient times -lam backward."""
    lam = float(lam)
    return node(value_of(a), (a,), lambda g: (-lam * g,))


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy of (N, C) logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    lv = value_of(logits)
    n = lv.shape[0]
    if labels.shape[0] != n:
        raise ValueError("labels length does not match logits rows")
    shifted = lv - lv.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + lv.max(axis=1)
    val = np.float64((lse - lv[np.arange(n), labels]).mean())

    def vjp(g):
        d = np.exp(shifted)
        d /= d.sum(axis=1, keepdims=True)
        d[np.arange(n), labels] -= 1.0
        return (g * d / n,)

    return node(val, (logits,), vjp)


def smooth_l1(pred, target):
    """Huber-style loss: sum over coords, mean over rows of (N, D) operands."""
    pv, tv = value_of(pred), value_of(target)
    if pv.shape != tv.shape:
        raise ValueError("smooth_l1 shape mismatch")
    n = pv.shape[0]
    d = pv - tv
    ad = np.abs(d)
    elem = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)

    def vjp(g):
        dp = g * np.where(ad < 1.0, d, np.sign(d)) / n
        return (dp, -dp)

    return node(np.float64(elem.sum() / n), (pred, target), vjp)


# ---------------------------------------------------------------------------
# optimisation
# ---------------------------------------------------------------------------

class SGD:
    """Plain SGD with classical momentum: v <- mu*v + g, p <- p - lr*v."""

    def __init__(self, params, lr, momentum=0.9):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.value -= self.lr * v
