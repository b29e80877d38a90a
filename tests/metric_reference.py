"""Dense reference for the metric expansion, shared by the test modules.

Evaluates g = Minv - I (the spatial block) and its divergence term by
term, as the blocks are written in the geometry module docstring, with
per-sample (B, m, m) matrices.  geometry.metric_invariants contracts the
same blocks through packed operators and never forms these matrices; the
tests hold it to this reference.

A spatial monomial block T[..., k, l, ...] z_k z_l ... is contracted a
slot at a time: a matrix product of the monomials z_k z_l with the last
two slots, then batched matrix-vector products for the others, on
bounded sample chunks, so no temporary grows with the batch.
"""

import numpy as np

# doubles per chunk temporary
_ELEMS = 1 << 20


def _contract(T, z, slots):
    """T[q..., k_1, ..., k_slots] z_k1 ... z_kslots per sample: shape
    (B,) + T.shape[:-slots], for slots >= 2."""
    B, m = z.shape
    lead = T.shape[:-slots]
    flat = np.ascontiguousarray(T).reshape(-1, m * m).T
    out = np.empty((B, flat.shape[1] // m ** (slots - 2)))
    step = max(1, _ELEMS // flat.shape[1])
    for s in range(0, B, step):
        zz = z[s:s + step]
        X = (zz[:, :, None] * zz[:, None, :]).reshape(len(zz), m * m) @ flat
        for _ in range(slots - 2):
            X = np.einsum("bqk,bk->bq", X.reshape(len(zz), -1, m), zz)
        out[s:s + step] = X
    return out.reshape((B,) + lead)


def _samples(t, z):
    z = np.atleast_2d(np.asarray(z, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (z.shape[0],))
    return t, z


def _mixed_quartic_block(me):
    """Coefficient of y_n^2 y_k y_l: (1/2) T4 + (1/3) Sym_ij(Rbar . S),
    symmetrized over the monomial slots."""
    R, S = me.point.Rbar, me.point.S
    rs = np.einsum("iksl,sj->ijkl", R, S)
    rs = 0.5 * (rs + rs.transpose(1, 0, 2, 3))
    K = me.T4 / 2.0 + rs / 3.0
    return 0.5 * (K + K.transpose(0, 1, 3, 2))


def ref_metric_g(me, t, z, through_degree=4):
    """g = B2 + B3 + B4, truncated at through_degree, shape (B, m, m).

    g itself, not Minv - I: I + g - I would round g's diagonal to
    ulp(1)."""
    t, z = _samples(t, z)
    m = me.m
    R, S = me.point.Rbar, me.point.S
    t2 = (t * t)[:, None, None]
    t3 = (t ** 3)[:, None, None]
    g = np.zeros((z.shape[0], m, m))
    if through_degree < 2:
        return g
    P = _contract(R.transpose(0, 2, 1, 3), z, 2)        # Rbar y^2
    g += P / 3.0 + S * t2
    if through_degree >= 3:
        g += _contract(me.R1.transpose(0, 2, 1, 3, 4), z, 3) / 6.0
        g += np.einsum("ijk,bk->bij", me.S1, z) * t2
        g += me.S1n * t3 / 3.0
    if through_degree >= 4:
        g += np.einsum("bis,bjs->bij", P, P) / 15.0
        nc = np.einsum("bk,bk->b", _contract(me.Ncorr, z, 3), z)
        g += (nc / m)[:, None, None] * np.eye(m)
        a, Q = me.lowrank
        q = np.einsum("kl,bk,bl->b", Q, z, z)
        g += a * (q * q)[:, None, None]
        g += _contract(_mixed_quartic_block(me), z, 2) * t2
        g += np.einsum("ijk,bk->bij", me.T3, z) * t3 / 3.0
        g += (me.T5 + 8.0 * (S @ S)) * (t ** 4)[:, None, None] / 12.0
    return g


def ref_metric_inverse(me, t, z, through_degree=4):
    """Spatial block of the inverse metric, I + g, shape (B, m, m)."""
    return np.eye(me.m) + ref_metric_g(me, t, z, through_degree)


def ref_metric_divergence(me, t, z):
    """sum_i d(Minv[i, j]) / d y_i of the degree-4 expansion, shape (B, m).
    The normal block of Minv is constant, so only spatial derivatives
    contribute."""
    t, z = _samples(t, z)
    m = me.m
    R = me.point.Rbar
    t2 = (t * t)[:, None]
    # degree 2: both contractions are traces of Rbar
    out = z @ (np.einsum("iijl->jl", R) + np.einsum("ikji->jk", R)).T / 3.0
    # degree 3: the derivative hits each of the three monomial slots of R1
    d3 = (np.einsum("iijlm->jlm", me.R1) + np.einsum("ikjim->jkm", me.R1)
          + np.einsum("ikjli->jkl", me.R1))
    out += _contract(d3, z, 2) / 6.0
    out += np.einsum("iji->j", me.S1) * t2
    # degree 4: the four slot-contractions of the (1/15) product and the
    # trace rider
    quad_div = (np.einsum("iisl,jmsp->jlmp", R, R) + np.einsum("iksi,jmsp->jkmp", R, R)
                + np.einsum("iksl,jisp->jklp", R, R) + np.einsum("iksl,jmsi->jklm", R, R))
    out += _contract(quad_div, z, 3) / 15.0 + 4.0 / m * _contract(me.Ncorr, z, 3)
    a, Q = me.lowrank
    q = np.einsum("kl,bk,bl->b", Q, z, z)
    out += 4.0 * q[:, None] * ((z @ Q) @ a)
    K = _mixed_quartic_block(me)
    out += 2.0 * (z @ np.einsum("ijil->jl", K).T) * t2
    out += np.einsum("iji->j", me.T3) * (t ** 3)[:, None] / 3.0
    return out
