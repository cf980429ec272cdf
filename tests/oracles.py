"""Independent reference implementations used as test oracles.

Everything here is written straight from public algorithm descriptions
or as naive per-element loops, deliberately sharing no code with the
package so that agreement is evidence, not tautology.  The exceptions
are the draw loops at the end.  They read a generator's stream one word
at a time through ``word``, the splitmix64 specification evaluated at
the generator's position, in the documented draw order, and are the
reference the package's array draws and their consumers must equal bit
for bit.  ``uniform_loop`` and ``integer_loop`` (a ``bound.bit_length()``
mask) draw one value at a time; test helpers build pinned inputs with them.
The loops take the logarithms, sines and powers from numpy on one value
at a time, as ``math`` rounds differently; +, -, * and / are Python floats.
"""

import math

import numpy as np

from losslab.rng import Rng

M64 = (1 << 64) - 1


def splitmix64_stream(seed, n):
    """Reference splitmix64, transcribed from the public specification."""
    out = []
    x = seed & M64
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append((z ^ (z >> 31)) & M64)
    return out


def mlp_forward_loops(layer_params, x_row):
    """Forward pass for one sample using plain Python loops."""
    a = [float(v) for v in x_row]
    for idx, (w, b) in enumerate(layer_params):
        d_in = len(w)
        d_out = len(w[0])
        z = []
        for j in range(d_out):
            s = float(b[j])
            for i in range(d_in):
                s += a[i] * float(w[i][j])
            z.append(s)
        if idx < len(layer_params) - 1:
            a = [max(v, 0.0) for v in z]
        else:
            a = z
    return np.array(a)


def central_diff_grad(f, x, h=1e-5):
    """Coordinate-wise central finite differences of a scalar function."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def central_diff_hvp(grad_f, x, v, h=1e-4):
    """(grad(x + h v) - grad(x - h v)) / (2 h)."""
    return (grad_f(x + h * v) - grad_f(x - h * v)) / (2.0 * h)


def hvp_full_pass(layers, tangents, X, y, wd):
    """Pearlmutter Hessian-vector product, every pass recomputed per call.

    ``layers`` and ``tangents`` are per-layer ``(W, b)`` pairs of the
    parameters and of the direction.  The forward pass, softmax, primal
    backward pass and both tangent passes run in the order of the
    textbook R-operator, with a zero input tangent carried through, so
    the result is the reference a cached-primal implementation must equal
    bit for bit.  Returns the flat ``(W0, b0, W1, b1, ...)`` vector.
    """
    n, last = X.shape[0], len(layers) - 1
    acts, zs, r_acts = [X], [], [np.zeros_like(X)]
    a, ra = X, r_acts[0]
    for l, ((w, b), (vw, vb)) in enumerate(zip(layers, tangents)):
        z = a @ w + b
        rz = ra @ w + a @ vw + vb
        zs.append(z)
        if l < last:
            a = np.maximum(z, 0.0)
            ra = rz * (z > 0.0)
            acts.append(a)
            r_acts.append(ra)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1)[:, None]
    rg = p * (rz - (p * rz).sum(axis=1, keepdims=True)) / n
    p[np.arange(n), y] -= 1.0
    g = p / n
    parts = [None] * (2 * len(layers))
    for l in range(last, -1, -1):
        parts[2 * l] = (r_acts[l].T @ g + acts[l].T @ rg).ravel()
        parts[2 * l + 1] = rg.sum(axis=0)
        if l > 0:
            mask = zs[l - 1] > 0.0
            w_t, vw_t = layers[l][0].T, tangents[l][0].T
            rg = (rg @ w_t + g @ vw_t) * mask
            g = (g @ w_t) * mask
    v = np.concatenate([np.concatenate([vw.ravel(), vb]) for vw, vb in tangents])
    return np.concatenate(parts) + (2.0 * wd) * v


def exact_trace_stacked(layers, X, wd):
    """Exact trace of the Hessian of a ReLU net, all C classes pushed back as one stack.

    ``layers`` are per-layer ``(W, b)`` pairs.  With the masks fixed every
    logit is linear in any one parameter, so the trace is the Gauss-Newton
    matrix's: the softmax cross-entropy's Hessian in the logits is
    ``sum_c s_bc s_bc^T``, ``s_bc = sqrt(p_bc) (e_c - p_b)``, and each
    ``s_bc`` is carried back through the ``W^T`` products and masks as
    one ``(C, B, width)`` array, whose squared norms are summed over c and
    j at once.  The labels do not enter.
    """
    n, c = X.shape[0], layers[-1][0].shape[1]
    acts, zs, a = [X], [], X
    for l, (w, b) in enumerate(layers):
        z = a @ w + b
        zs.append(z)
        if l < len(layers) - 1:
            a = np.maximum(z, 0.0)
            acts.append(a)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1)[:, None]
    delta = np.sqrt(p.T)[:, :, None] * (np.eye(c)[:, None, :] - p)
    total = 0.0
    for l in range(len(layers) - 1, -1, -1):
        sq_acts = np.einsum("bi,bi->b", acts[l], acts[l]) + 1.0
        total += float(sq_acts @ np.einsum("cbj,cbj->b", delta, delta))
        if l > 0:
            delta = (delta @ layers[l][0].T) * (zs[l - 1] > 0.0)
    count = sum(w.size + b.size for w, b in layers)
    return total / n + 2.0 * wd * count


def jacobi_eigenvalues(a, sweeps=100, tol=1e-14):
    """Cyclic Jacobi rotation eigensolver for symmetric matrices."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.sqrt(np.sum(np.diag(a) ** 2))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def hsic_literal(x, y):
    """The centering-matrix trace formula evaluated verbatim."""
    m = x.shape[0]
    h = np.eye(m) - np.ones((m, m)) / m
    return np.trace(x @ x.T @ h @ y @ y.T @ h) / (m - 1) ** 2


def softmax_reference(logits):
    """Plain exp/normalize without the max-subtraction trick."""
    e = np.exp(np.asarray(logits, dtype=np.float64))
    return e / e.sum(axis=1, keepdims=True)


def count_correct_loops(logits, labels):
    """Accuracy numerator with explicit loops and lowest-index argmax."""
    correct = 0
    for row, lab in zip(logits, labels):
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        if best == lab:
            correct += 1
    return correct


def l2_loops(a, b):
    s = 0.0
    for x, y in zip(a, b):
        s += (float(x) - float(y)) ** 2
    return s**0.5


def word(rng):
    """The next word of ``rng``'s stream; advances it one word.

    ``rng`` is a ``Rng``, or any object with its ``seed`` and ``_pos``.  Word
    i of seed s is the first splitmix64 output from state ``s + i * GAMMA``.
    """
    out = splitmix64_stream(rng.seed + rng._pos * 0x9E3779B97F4A7C15, 1)[0]
    rng._pos += 1
    return out


def uniform_loop(rng):
    """One double in [0, 1) from the top 53 bits of one word."""
    return (word(rng) >> 11) * 2.0**-53


def integer_loop(rng, bound):
    """One integer in [0, bound), masking each word to ``bound.bit_length()``
    low bits until one is in range."""
    mask = (1 << bound.bit_length()) - 1
    while True:
        r = word(rng) & mask
        if r < bound:
            return r


def integers_loop(rng, bound, n):
    """``Rng.integers``: n masked words, then one word for each entry still
    out of range, round by round in index order."""
    mask = (1 << (bound - 1).bit_length()) - 1
    out = [word(rng) & mask for _ in range(n)]
    redo = [i for i in range(n) if out[i] >= bound]
    while redo:
        for i in redo:
            out[i] = word(rng) & mask
        redo = [i for i in redo if out[i] >= bound]
    return out


def normals_loop(rng, n):
    """``Rng.normals``: ceil(n/2) radius words, then as many angle words;
    pair i gives the cosine normal, then the sine one."""
    m = (n + 1) // 2
    u = [uniform_loop(rng) for _ in range(2 * m)]
    out = []
    for i in range(m):
        r = float(np.sqrt(-2.0 * np.log1p(-u[i])))
        ang = (2.0 * math.pi) * u[m + i]
        out += [r * float(np.cos(ang)), r * float(np.sin(ang))]
    return out[:n]


def gamma_loop(rng, alpha, n):
    """``Rng.gamma``: Marsaglia-Tsang rounds of k normals then k uniforms for
    the k entries pending; below alpha = 1, the draws at alpha + 1, then n
    boost uniforms."""
    if alpha < 1.0:
        g = gamma_loop(rng, alpha + 1.0, n)
        u = [uniform_loop(rng) for _ in range(n)]
        return [gi * float((np.array([1.0 - ui]) ** (1.0 / alpha))[0]) for gi, ui in zip(g, u)]
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = [None] * n
    pending = list(range(n))
    while pending:
        xs = normals_loop(rng, len(pending))
        us = [1.0 - uniform_loop(rng) for _ in pending]
        still = []
        for i, x, u in zip(pending, xs, us):
            t = 1.0 + c * x
            v = t * t * t
            x2 = x * x
            if v > 0.0 and (u < 1.0 - 0.0331 * (x2 * x2)
                            or np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(v))):
                out[i] = d * v
            else:
                still.append(i)
        pending = still
    return out


def beta_loop(rng, alpha, n):
    """``Rng.beta``: n gammas x, then n gammas y; x / (x + y), or 0.5 where both are 0."""
    x = gamma_loop(rng, alpha, n)
    y = gamma_loop(rng, alpha, n)
    return [xi / (xi + yi) if xi + yi > 0.0 else 0.5 for xi, yi in zip(x, y)]


def mixup_probes_loop(X, m, alpha, seed, beta=beta_loop):
    """Mixup probes in the documented order: m rows a, m rows b != a, then m weights."""
    rng = Rng(seed)
    n = X.shape[0]
    a = integers_loop(rng, n, m)
    b = [bi + (bi >= ai) for ai, bi in zip(a, integers_loop(rng, n - 1, m))]
    lam = beta(rng, alpha, m)
    out = np.empty((m, X.shape[1]), dtype=np.float64)
    for i in range(m):
        out[i] = lam[i] * X[a[i]] + (1.0 - lam[i]) * X[b[i]]
    return out


def raw_probe_rows_loop(n, m, seed):
    """Row indices of raw probes: one ``integers_loop`` of m draws below n."""
    return np.array(integers_loop(Rng(seed), n, m))


def randomize_labels_loop(y, num_classes, frac, seed):
    """Labels after flipping k = round(frac*n) of them: ``Rng.choose`` picks
    the k rows, then ``integers_loop`` their classes, skipping each row's own."""
    y = np.array(y, dtype=np.int64)
    k = round(frac * y.size)
    if k:
        rng = Rng(seed)
        rows = rng.choose(y.size, k)
        for i, other in zip(rows, integers_loop(rng, num_classes - 1, k)):
            y[i] = other + (other >= y[i])
    return y
