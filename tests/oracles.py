"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: plain
numpy/scipy eigendecompositions, explicit index loops and finite differences.
"""

from functools import reduce

import numpy as np
from scipy import linalg as sla

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_term_matrix(term):
    """coeff times the kron product of the 2 x 2 Pauli matrices of the string, first letter leading."""
    return term.coeff * reduce(np.kron, [PAULI[ch] for ch in term.string])


def pauli_sum_matrix(terms, d):
    """The D x D Pauli sum, added term by term from the kron products."""
    h = np.zeros((d, d), dtype=complex)
    for term in terms:
        h += pauli_term_matrix(term)
    return h


def qfi_double_sum(rho, drho, tol=1e-12):
    """Quantum Fisher information as the spectral double sum."""
    w, v = sla.eigh(rho)
    t = v.conj().T @ drho @ v
    d = rho.shape[0]
    total = 0.0
    for j in range(d):
        for k in range(d):
            if w[j] + w[k] > tol:
                total += 2.0 / (w[j] + w[k]) * abs(t[j, k]) ** 2
    return total


def dense_target(family, theta, generator=None):
    """The synthesis target m_tilde of a pure or rank-two family as a D x D matrix.

    Pure families (unitary generator, given as the matrix or diagonal
    ``generator`` the family was built from): psi = expm(-i theta G) psi_in,
    dpsi = -i G psi, perp = dpsi - <psi|dpsi> psi and m_tilde = |psi><perp| -
    |perp><psi| + |psi><psi| - I/D. Rank-two fixed-basis families: |t0><t1|.
    """
    if family.state_type == "fixed-basis":
        return np.outer(family.basis[0], family.basis[1].conj())
    gen = np.asarray(generator)
    gen = np.diag(gen) if gen.ndim == 1 else gen
    psi = sla.expm(-1j * theta * gen) @ family.psi_in
    dpsi = -1j * gen @ psi
    perp = dpsi - np.vdot(psi, dpsi) * psi
    d = psi.size
    return (np.outer(psi, perp.conj()) - np.outer(perp, psi.conj())
            + np.outer(psi, psi.conj()) - np.eye(d) / d)


def central_difference(fn, h):
    """theta -> (fn(theta + h) - fn(theta - h)) / (2 h): a derivative callable for a
    numeric family, for tests of what a difference quotient does."""
    return lambda theta: (np.asarray(fn(theta + h)) - np.asarray(fn(theta - h))) / (2 * h)


def fisher_fd(elements, rho_fn, theta, h=1e-5, p_tol=1e-12):
    """Classical Fisher information by finite differences of Tr(E rho(theta))."""
    total = 0.0
    rho0 = rho_fn(theta)
    rho_p, rho_m = rho_fn(theta + h), rho_fn(theta - h)
    for e in elements:
        p = np.trace(e @ rho0).real
        if p < p_tol:
            continue
        dp = (np.trace(e @ rho_p).real - np.trace(e @ rho_m).real) / (2 * h)
        total += dp * dp / p
    return total


def sandwich_index_sum(m, dims, k, v):
    """<v| m |v> on subsystem k by explicit index summation."""
    n = len(dims)
    t = np.asarray(m, dtype=complex).reshape(tuple(dims) + tuple(dims))
    keep = [i for i in range(n) if i != k]
    out_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((out_dim, out_dim), dtype=complex)
    rows = list(np.ndindex(*[dims[i] for i in keep])) if keep else [()]
    for ri, row in enumerate(rows):
        for ci, col in enumerate(rows):
            acc = 0.0 + 0.0j
            for a in range(dims[k]):
                for b in range(dims[k]):
                    idx_r = list(row)
                    idx_r.insert(k, a)
                    idx_c = list(col)
                    idx_c.insert(k, b)
                    acc += np.conj(v[a]) * t[tuple(idx_r) + tuple(idx_c)] * v[b]
            out[ri, ci] = acc
    return out


def ghz_product_basis_fi(n, theta, h=1e-6):
    """Fisher information of the all-|+/-| product basis on the GHZ family,
    by enumerating all 2^n outcome probabilities and differencing in theta."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)

    def psi(t):
        vec = np.zeros(2 ** n, dtype=complex)
        vec[0] = 1 / np.sqrt(2)
        vec[-1] = np.exp(1j * n * t) / np.sqrt(2)
        return vec

    total = 0.0
    for bits in np.ndindex(*([2] * n)):
        e = np.array([1.0 + 0j])
        for b in bits:
            e = np.kron(e, plus if b == 0 else minus)
        p = abs(np.vdot(e, psi(theta))) ** 2
        if p < 1e-12:
            continue
        dp = (abs(np.vdot(e, psi(theta + h))) ** 2
              - abs(np.vdot(e, psi(theta - h))) ** 2) / (2 * h)
        total += dp * dp / p
    return total


def dense_saturation(elements, rho, drho, rank_tol=1e-9, p_tol=1e-12,
                     condition_rel=1e-7, regularity_rel=1e-7, fi_rel=1e-6):
    """Saturation check of dense POVM elements through their square roots.

    The SLD comes from the spectral formula over pairs with p_j + p_k above
    rank_tol. Every element is eigendecomposed; eigenvalues below 1e-14 of its
    largest one are rounding noise of a singular element and are floored to
    zero before the square root. Residuals are max ||sqrt(E) M_ij sqrt(E)||
    over all outcomes and max ||sqrt(E) L |psi_i>|| over null outcomes, with
    M_ij = |psi_i><psi_j| L - L |psi_i><psi_j| on the support of rho.
    """
    w, v = sla.eigh(rho)
    t = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    keep = denom > rank_tol
    coeff = np.zeros_like(t)
    coeff[keep] = 2 * t[keep] / denom[keep]
    sld = v @ coeff @ v.conj().T
    qfi = float(np.trace(rho @ sld @ sld).real)
    support = v[:, w > rank_tol]
    m_set = []
    for i in range(support.shape[1]):
        for j in range(support.shape[1]):
            ket_bra = np.outer(support[:, i], support[:, j].conj())
            m_set.append(ket_bra @ sld - sld @ ket_bra)
    scale = max(float(np.linalg.norm(m)) for m in m_set)

    fi = cond = reg = 0.0
    for e in elements:
        ew, ev = sla.eigh(e)
        ew = np.where(ew < 1e-14 * max(ew.max(), 1.0), 0.0, ew)
        root = (ev * np.sqrt(ew)) @ ev.conj().T
        for m in m_set:
            cond = max(cond, float(np.linalg.norm(root @ m @ root)))
        p = float(np.trace(e @ rho).real)
        if p < p_tol:
            reg = max(reg, float(np.linalg.norm(root @ sld @ support, axis=0).max()))
            continue
        dp = float(np.trace(e @ drho).real)
        fi += dp * dp / p
    saturating = (cond <= condition_rel * scale and reg <= regularity_rel * scale
                  and qfi - fi <= fi_rel * qfi)
    return {"fi": fi, "qfi": qfi, "condition_residual": cond,
            "regularity_residual": reg, "scale": scale, "saturating": saturating}


def per_matrix_saturation(reader, frame, p_tol=1e-12, condition_rel=1e-7, regularity_rel=1e-7,
                          fi_rel=1e-6):
    """Saturation check of a Povm or tree, one ``amplitudes`` call per ket block and per
    bra block of each matrix.

    ``frame`` is the family's ``SaturationMatrices``. rho and drho give fi, each
    condition M_ij its zero-sandwich residual, and rho is read a second time for
    the null outcomes, whose overlaps with the rows L psi_i give the regularity
    residual: the check as it read its rows before they were stacked into one
    contraction.
    """
    def sandwich(m):
        out = np.sum(reader.amplitudes(m.kets) * reader.amplitudes(m.bras).conj(), axis=1)
        return out + m.shift * np.sum(np.abs(reader.vectors) ** 2, axis=1) if m.shift else out

    p, dp = (sandwich(m).real for m in (frame.rho, frame.drho))
    keep = p >= p_tol
    fi = float(np.sum(dp[keep] ** 2 / p[keep]))
    conditions = frame.conditions
    scale = max(m.norm() for m in conditions)
    cond = max(float(np.abs(sandwich(m)).max()) for m in conditions)
    null = sandwich(frame.rho).real < p_tol
    reg = float(np.abs(reader.amplitudes(frame.l_support))[null].max(initial=0.0))
    saturating = (cond <= condition_rel * scale and reg <= regularity_rel * scale
                  and frame.qfi - fi <= fi_rel * frame.qfi)
    return {"fi": fi, "qfi": frame.qfi, "condition_residual": cond,
            "regularity_residual": reg, "scale": scale, "saturating": saturating}


def leaf_vectors_kron(tree):
    """(path, vector) per leaf, each vector one np.kron fold in layout order.

    For every outcome path, finds the node measured at each depth (node
    p * d + x follows outcome x at node p), keeps the basis column it chose
    on every subsystem and composes the leaf's factors from scratch.
    """
    dims = [tree.layout.dims[k] for k in tree.order]
    out = []
    for path in np.ndindex(*dims):
        parts, node = {}, 0
        for sub, bases, d, x in zip(tree.order, tree.bases, dims, path):
            parts[sub] = bases[node][:, x]
            node = node * d + x
        vec = parts[0]
        for k in range(1, len(dims)):
            vec = np.kron(vec, parts[k])
        out.append((path, vec))
    return out


def lm_search_residuals(a, b, x, padded, eps=1e-3):
    """Residuals of the product-measurement search at parameters x.

    U = expm(i H1) and V = the first d2 rows of expm(i H2), each H filled from
    x one entry at a time (diagonal entries, then real and then imaginary
    parts of the upper triangle, row by row); the residuals are Im(conj(C) D)
    and exp(-|C|^2 / 2 eps^2) |D| for C = U^dag A V, D = U^dag B V.
    """
    d1, d2 = a.shape
    m2 = d2 + 1 if padded else d2

    def herm(p, d):
        h = np.zeros((d, d), dtype=complex)
        upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
        for i in range(d):
            h[i, i] = p[i]
        for k, (i, j) in enumerate(upper):
            z = p[d + k] + 1j * p[d + len(upper) + k]
            h[i, j], h[j, i] = z, np.conj(z)
        return h

    u = sla.expm(1j * herm(x[:d1 * d1], d1))
    v = sla.expm(1j * herm(x[d1 * d1:], m2))[:d2, :]
    c = u.conj().T @ a @ v
    d = u.conj().T @ b @ v
    weight = np.exp(-np.abs(c) ** 2 / (2 * eps ** 2))
    return np.concatenate([np.imag(np.conj(c) * d).ravel(),
                           (weight * np.abs(d)).ravel()])


def scipy_lm(fun, x0, jac, max_nfev, tol):
    """scipy's least_squares(method="lm", x_scale="jac") on fun and jac bordered by one zero row and column.

    The problem ``lm.least_squares`` hands to MINPACK, through scipy's
    high-level wrapper; returns x without the border parameter, and nfev.
    """
    from scipy.optimize import least_squares
    n = len(x0)

    def bordered(y):
        j = jac(y[:n])
        return np.block([[j, np.zeros((len(j), 1))], [np.zeros((1, n + 1))]])

    sol = least_squares(lambda y: np.append(fun(y[:n]), 0.0), np.append(x0, 0.0), jac=bordered,
                        method="lm", x_scale="jac", max_nfev=max_nfev,
                        xtol=tol, ftol=tol, gtol=tol)
    return sol.x[:n], sol.nfev


def central_jacobian(fun, x, h=1e-6):
    """Jacobian of fun at x by central differences, one column per parameter."""
    cols = []
    for j in range(len(x)):
        step = np.zeros(len(x))
        step[j] = h
        cols.append((fun(x + step) - fun(x - step)) / (2 * h))
    return np.stack(cols, axis=1)


def sample_paths(tree, rho, shots, rng):
    """``shots`` outcome paths of the one-way LOCC protocol, a (shots, n) array.

    Each depth groups the shots by the node they reached. A node measures its
    subsystem on the state conditioned on its outcome path: the subsystem's
    reduced density matrix is an explicit partial trace of the conditioned
    state's reshaped tensor, its outcome law is computed once, and all of the
    node's outcomes are drawn together; each child's conditioned state
    contracts the observed basis vector on that subsystem. The joint law of a
    path is Tr(rho E_path), the law of the flattened measurement.
    """
    dims = list(tree.layout.dims)
    ids = list(range(len(dims)))          # layout indices of the subsystems left
    states = {0: np.asarray(rho, dtype=complex).reshape(dims * 2)}   # node -> state
    node = np.zeros(shots, dtype=int)
    paths = np.zeros((shots, len(dims)), dtype=int)
    for depth, (sub, bases) in enumerate(zip(tree.order, tree.bases)):
        k, n, d = ids.index(sub), len(ids), dims[sub]
        rest = int(np.prod([dims[i] for i in ids if i != sub]))
        ids.remove(sub)
        children = {}
        for p in np.unique(node):
            # axes (row k, column k, rows of the rest, columns of the rest)
            blocks = np.moveaxis(states[p], (k, n + k), (0, 1)).reshape(d, d, rest, rest)
            reduced = np.einsum("abrr->ab", blocks)
            basis = bases[p]
            probs = np.real(np.einsum("ax,ab,bx->x", basis.conj(), reduced, basis))
            probs = np.clip(probs, 0.0, None)
            at = np.flatnonzero(node == p)
            paths[at, depth] = rng.choice(d, size=at.size, p=probs / probs.sum())
            for x in np.unique(paths[at, depth]):
                v = basis[:, x]
                children[p * d + x] = (np.einsum("a,abrs,b->rs", v.conj(), blocks, v)
                                       / probs[x]).reshape([dims[i] for i in ids] * 2)
        node = node * d + paths[:, depth]     # the child measured after outcome x
        states = children
    return paths


def closed_form_2x2(h1, h2, tiny=1e-12):
    """(alpha, beta, U) zero-diagonalizing a traceless Hermitian 2x2 pair, one
    pair at a time in scalar arithmetic (abs, angle and max of Python and
    numpy scalars), with ``tiny`` the relative zero floor."""
    def prepare(m):
        m = (m + m.conj().T) / 2
        m = m - (np.trace(m) / 2) * np.eye(2)
        d = np.real(np.diag(m))
        big = np.flatnonzero(np.abs(d) > tiny * max(1.0, np.abs(m).max()))
        return -m if big.size and d[big[0]] < 0 else m

    h1, h2 = prepare(h1), prepare(h2)
    a1, a2 = float(np.real(h1[0, 0])), float(np.real(h2[0, 0]))
    b1, phi1 = abs(h1[0, 1]), float(np.angle(h1[0, 1]))
    b2, phi2 = abs(h2[0, 1]), float(np.angle(h2[0, 1]))
    size = max(np.linalg.norm(h1), np.linalg.norm(h2), tiny)
    if abs(a1) <= tiny * size and abs(a2) <= tiny * size:
        alpha, beta = 0.0, 0.0
    else:
        x = b1 * a2 * np.cos(phi1) - b2 * a1 * np.cos(phi2)
        y = b1 * a2 * np.sin(phi1) - b2 * a1 * np.sin(phi2)
        alpha = 0.0 if max(abs(x), abs(y)) <= tiny * size ** 2 else float(np.arctan2(-x, y))
        a, b, phi = (a1, b1, phi1) if abs(a1) >= abs(a2) else (a2, b2, phi2)
        beta = 0.5 * float(np.arctan2(-a, b * np.cos(alpha - phi)))
    c, s = np.cos(beta), np.sin(beta)
    return alpha, beta, np.array([[c, -s * np.exp(1j * alpha)],
                                  [s * np.exp(-1j * alpha), c]])


def prob_at(block, theta):
    """The law of a stack's first tree at theta, through its batched ``block``
    (``simulate._path_prob_fns``'s, or ``_OutcomeLaw.block``)."""
    return block(np.array([theta]), [0])[0, :, 0]


def golden_mle(law, counts, prior):
    """Maximum-likelihood estimate by the grid scan and golden-section search.

    ``law`` is a ``simulate._OutcomeLaw`` and ``counts`` its leaf-indexed
    counts. The grid scan (ties toward the interval midpoint, flat-grid
    rejection) is the library's; the refinement compares log-likelihoods of
    ``prob_at(law.block, theta)`` down to a bracket of max(MLE_WIDTH,
    2 eps |b|), the score root's floor, and returns its midpoint.
    """
    from loccfisher.simulate import LOG_FLOOR, DegenerateLikelihoodError
    from loccfisher.tensor import FLAT_REL, MLE_WIDTH

    golden = (np.sqrt(5.0) - 1.0) / 2.0
    count_vec = np.asarray(counts, dtype=float)

    def loglik(theta):
        probs = np.maximum(prob_at(law.block, theta), LOG_FLOOR)
        return float(count_vec @ np.log(probs))

    grid = law.grid
    values = count_vec @ law.log_table
    peak = values.max()
    if peak - values.min() < FLAT_REL * (abs(peak) + 1.0):
        raise DegenerateLikelihoodError("likelihood is flat on the prior interval")
    ties = np.flatnonzero(values >= peak)
    mid = 0.5 * (prior[0] + prior[1])
    best = int(ties[np.argmin(np.abs(grid[ties] - mid))])

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = loglik(c), loglik(d)
    while b - a > max(MLE_WIDTH, 2 * np.finfo(float).eps * abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = loglik(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = loglik(d)
    return float(0.5 * (a + b))
