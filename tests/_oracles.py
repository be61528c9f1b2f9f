"""Independent straight-line reimplementations used as test oracles.

Pure-Python scalar code, deliberately written without the package's helpers
or vectorization, following the model definitions term by term. The
exceptions are :func:`auc_rank_sum_oracle`, the rank-sum AUC over every
pair at once; :func:`softmax_newton_oracle`, :func:`binary_newton_oracle`
and :func:`growth_fit_oracle`, solves that need NumPy's linear algebra;
and :func:`edge_affinity_oracle`, the one-shot array form that the chunked
kernel must match bit for bit. The line-by-line file parsers
at the end build the package's result types and raise its ParseError, so
their outputs compare field by field.
"""

import bisect
import math

import numpy as np

from m2dne.graph import LabelTable, ParseError, TemporalNetwork


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x):
    return math.log1p(math.exp(-abs(x))) + max(x, 0.0)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _matvec(M, v):
    return [sum(M[r][c] * v[c] for c in range(len(v))) for r in range(len(M))]


def g_oracle(u, v):
    return -sum((a - b) ** 2 for a, b in zip(u, v))


def kappa_oracle(delta, dt):
    return math.exp(-delta * dt)


def local_weights_oracle(center, hist, U, att, W, decay_raw, t):
    d = len(U[0])
    a1, a2 = att[:d], att[d:]
    delta = _softplus(decay_raw[center])
    Wc = _matvec(W, U[center])
    scores = []
    for p, tp in hist:
        Wp = _matvec(W, U[p])
        scores.append(_sigmoid(kappa_oracle(delta, t - tp)
                               * (_dot(a1, Wc) + _dot(a2, Wp))))
    exps = [math.exp(s) for s in scores]
    z = sum(exps)
    return [e / z for e in exps]


def side_score_oracle(center, hist, U, att, W, sw, sb, decay_raw, t):
    d = len(U[0])
    weights = local_weights_oracle(center, hist, U, att, W, decay_raw, t)
    agg = [0.0] * d
    for (p, _), w in zip(hist, weights):
        Wp = _matvec(W, U[p])
        for c in range(d):
            agg[c] += w * Wp[c]
    ut = [_sigmoid(x) for x in agg]
    mean_dt = sum(t - tp for _, tp in hist) / len(hist)
    kbar = kappa_oracle(_softplus(decay_raw[center]), mean_dt)
    return _dot(sw, [kbar * x for x in ut]) + sb


def intensity_raw_oracle(i, j, t, hist_i, hist_j, U, att, W, sw, sb, decay_raw):
    lam = g_oracle(U[i], U[j])
    hist_i = list(hist_i)
    hist_j = list(hist_j)
    if not hist_i and not hist_j:
        return lam
    if hist_i and hist_j:
        bi = side_score_oracle(i, hist_i, U, att, W, sw, sb, decay_raw, t)
        bj = side_score_oracle(j, hist_j, U, att, W, sw, sb, decay_raw, t)
        beta = math.exp(bi) / (math.exp(bi) + math.exp(bj))
    elif hist_i:
        beta = 1.0
    else:
        beta = 0.0
    if hist_i:
        weights = local_weights_oracle(i, hist_i, U, att, W, decay_raw, t)
        delta = _softplus(decay_raw[i])
        for (p, tp), w in zip(hist_i, weights):
            lam += beta * w * g_oracle(U[p], U[j]) * kappa_oracle(delta, t - tp)
    if hist_j:
        weights = local_weights_oracle(j, hist_j, U, att, W, decay_raw, t)
        delta = _softplus(decay_raw[j])
        for (q, tq), w in zip(hist_j, weights):
            lam += (1.0 - beta) * w * g_oracle(U[q], U[i]) \
                * kappa_oracle(delta, t - tq)
    return lam


def history_oracle(events, h):
    """Pre-event histories of (src, dst, epoch) triples in time order.

    Per event, the h most recent (neighbor, epoch) pairs of each endpoint,
    oldest first; same-epoch events enter the histories only once the epoch
    advances.
    """
    histories = {}
    pending = []
    current_t = None
    out = []
    for s, d, t in events:
        if current_t is not None and t != current_t:
            for ps, pd, pt in pending:
                for node, other in ((ps, pd), (pd, ps)):
                    histories[node] = (histories.get(node, [])
                                       + [(other, pt)])[-h:]
            pending = []
        current_t = t
        out.append((list(histories.get(s, [])), list(histories.get(d, []))))
        pending.append((s, d, t))
    return out


def sampled_loss_oracle(events, hists, neg_src, neg_dst, U, att, W, sw, sb,
                        decay_raw):
    """Negative-sampling loss: -log sigmoid(lambda) per event plus
    -log sigmoid(-lambda) per corruption, where a corruption substitutes one
    endpoint and keeps both of the event's histories."""
    args = (U, att, W, sw, sb, decay_raw)
    loss = 0.0
    for (i, j, t), (hist_i, hist_j), negs_i, negs_j in zip(events, hists,
                                                          neg_src, neg_dst):
        loss += _softplus(-intensity_raw_oracle(i, j, t, hist_i, hist_j, *args))
        for i2 in negs_i:
            loss += _softplus(intensity_raw_oracle(i2, j, t, hist_i, hist_j,
                                                   *args))
        for j2 in negs_j:
            loss += _softplus(intensity_raw_oracle(i, j2, t, hist_i, hist_j,
                                                   *args))
    return loss


def negative_draws_oracle(cum, order, k, rng, exclude):
    """k draws from a cumulative unigram table, one uniform at a time; a draw
    equal to the excluded node is redrawn until it differs."""
    out = []
    for _ in range(k):
        while True:
            pos = min(bisect.bisect_right(cum, rng.random()), len(order) - 1)
            if order[pos] != exclude:
                out.append(order[pos])
                break
    return out


def event_negatives_oracle(src, dst, cum, order, k, rng):
    """Per event in order: k source replacements that exclude the target,
    then k target replacements that exclude the source."""
    cum, order = list(cum), [int(v) for v in order]
    neg_src, neg_dst = [], []
    for i, j in zip(src, dst):
        neg_src.append(negative_draws_oracle(cum, order, k, rng, exclude=j))
        neg_dst.append(negative_draws_oracle(cum, order, k, rng, exclude=i))
    return neg_src, neg_dst


def stream_counts_oracle(src, dst, time, node_count):
    """One pass over the event stream: node ids in order of first appearance,
    temporal degrees, and cumulative node and event counts per epoch 1..T."""
    T = max(time)
    seen, order = set(), []
    deg = [0] * node_count
    n, e = [0.0] * T, [0.0] * T
    for s, d, t in zip(src, dst, time):
        for v in (s, d):
            deg[v] += 1
            if v not in seen:
                seen.add(v)
                order.append(v)
                for k in range(t - 1, T):
                    n[k] += 1
        for k in range(t - 1, T):
            e[k] += 1
    return order, deg, n, e


def linking_rate_oracle(U, edges, t, theta):
    total = 0.0
    for a, b in edges:
        total += _sigmoid(-sum((x - y) ** 2 for x, y in zip(U[a], U[b])))
    return (total / len(edges)) / (t ** theta)


def predicted_new_edges_oracle(n, r, zeta, gamma):
    return n * r * zeta * ((n - 1.0) ** gamma)


def forecast_oracle(U, edges, e_last, n_last, t_last, n_future, zeta_raw,
                    gamma, theta):
    """Cumulative edge counts after epoch t_last: each epoch adds the edges
    predicted from the node count and epoch it starts from."""
    zeta = _softplus(zeta_raw)
    out = []
    e, n, t = e_last, n_last, t_last
    for n_next in n_future:
        r = linking_rate_oracle(U, edges, t, theta)
        e += predicted_new_edges_oracle(n, r, zeta, gamma)
        out.append(e)
        n, t = n_next, t + 1
    return out


def macro_loss_oracle(epochs, n, delta_e, U, edges, zeta_raw, gamma, theta):
    zeta = _softplus(zeta_raw)
    loss = 0.0
    for k in range(len(delta_e)):
        r = linking_rate_oracle(U, edges, epochs[k], theta)
        pred = predicted_new_edges_oracle(n[k], r, zeta, gamma)
        loss += (delta_e[k] - pred) ** 2
    return loss


def growth_gradient_oracle(epochs, n, delta_e, S, zeta_raw, gamma, theta):
    """Gradient of the growth loss sum (pred_k - delta_k)^2 at affinity S
    with respect to (zeta_raw, gamma, theta), where pred_k = S * zeta *
    n_k (n_k - 1)^gamma / t_k^theta and zeta = softplus(zeta_raw)."""
    zeta = _softplus(zeta_raw)
    d_zeta_raw = d_gamma = d_theta = 0.0
    for k in range(len(delta_e)):
        n1 = max(n[k] - 1.0, 0.0)
        pred = S * zeta * n[k] * n1 ** gamma / epochs[k] ** theta
        weight = 2.0 * (pred - delta_e[k]) * pred
        d_zeta_raw += weight * _sigmoid(zeta_raw) / zeta
        d_gamma += weight * (math.log(n1) if n1 > 0.0 else 0.0)
        d_theta -= weight * math.log(epochs[k])
    return d_zeta_raw, d_gamma, d_theta


def growth_fit_oracle(series, S):
    """(kappa, gamma, theta, loss) of the growth fit as first written: the
    projected loss's 2 x 2 algebra on arrays, its positive-definiteness test
    by ``np.linalg.det`` and every damped step solved by ``np.linalg.lstsq``,
    with the same start, damping and stopping rules as
    ``macro.fit_params``, whose ValueError messages it raises."""
    if not S > 0.0:
        raise ValueError(f"edge affinity S = {S} is not positive: every "
                         "training-edge sigmoid underflowed")
    n = series.n[:-1]
    if not np.any(n >= 2.0):
        raise ValueError("no increment epoch has 2 or more nodes, so the "
                         "growth model predicts no new edges")
    t = series.epochs[:-1].astype(np.float64)
    d_obs = series.delta_e
    log_n1 = np.where(n > 1.0, np.log(np.maximum(n - 1.0, 1e-300)), 0.0)
    log_factors = np.stack([log_n1, -np.log(t)], axis=1)

    def projected(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            q = n * np.power(np.maximum(n - 1.0, 0.0), x[0]) \
                / np.power(t, x[1])
            scale = np.max(q)
            q = q / scale
            qq = q @ q
            kappa = (d_obs @ q) / qq
            r = kappa * q - d_obs
            dq = q[:, None] * log_factors
            p, s = dq.T @ q, dq.T @ r
            gauss_newton = kappa ** 2 * (dq.T @ dq - np.outer(p, p) / qq)
            A = gauss_newton + kappa * (dq.T @ (r[:, None] * log_factors)) \
                - (kappa * (np.outer(p, s) + np.outer(s, p))
                   + np.outer(s, s)) / qq
            if not (A[0, 0] > 0.0 and np.linalg.det(A) > 0.0):
                A = gauss_newton
            return float(r @ r), kappa * s, A, float(kappa / scale)

    x = np.array([1.0, 1.0])
    loss, g, A, kappa = projected(x)
    if not np.isfinite(loss):
        raise ValueError("growth loss is not finite at the start point")
    lam = 1e-3
    for _ in range(200):
        if 2.0 * float(np.linalg.norm(g)) <= 1e-10 * (1.0 + loss) \
                or lam > 1e16:
            break
        delta = np.linalg.lstsq(A + lam * np.diag(np.diag(A)), -g,
                                rcond=None)[0]
        loss_new, g_new, A_new, kappa_new = projected(x + delta)
        if np.isfinite(loss_new) and loss_new < loss:
            decrease = (loss - loss_new) / loss
            x, loss, g, A, kappa = x + delta, loss_new, g_new, A_new, kappa_new
            lam /= 10.0
            if decrease < 1e-15:
                break
        else:
            lam *= 10.0
    if not kappa > 0.0:
        raise ValueError(f"fitted kappa = S * zeta is {kappa}, not positive: "
                         "the series has no new edges to fit")
    return kappa, float(x[0]), float(x[1]), loss


def recommendation_oracle(U, events, ks):
    """Recall@K and precision@K, averaged over the nodes with held-out
    events, of a full sort of every other node by squared distance to the
    query (ties by ascending id)."""
    truth = {}
    for s, d in events:
        truth.setdefault(s, set()).add(d)
        truth.setdefault(d, set()).add(s)
    recall = {k: 0.0 for k in ks}
    precision = {k: 0.0 for k in ks}
    for q in sorted(truth):
        dist = {v: sum((a - b) ** 2 for a, b in zip(U[v], U[q]))
                for v in range(len(U)) if v != q}
        ranked = sorted(dist, key=lambda v: (dist[v], v))
        for k in ks:
            got = sum(1 for v in ranked[:k] if v in truth[q])
            recall[k] += got / len(truth[q])
            precision[k] += got / k
    out = {}
    for k in ks:
        out[f"recall@{k}"] = recall[k] / len(truth)
        out[f"precision@{k}"] = precision[k] / len(truth)
    return out


def reconstruction_precision_oracle(U, edges, ks, scores=None):
    """Precision@K of a full sort of every pair i < j by (-score, i, j),
    score -||u_i - u_j||^2 or ``scores[i, j]`` when given (a float sum's
    last bit depends on its order, and a tie on that bit), against the
    undirected edge set."""
    linked = {(min(a, b), max(a, b)) for a, b in edges}
    pairs = [(-sum((x - y) ** 2 for x, y in zip(U[i], U[j]))
              if scores is None else scores[i, j], i, j)
             for i in range(len(U)) for j in range(i + 1, len(U))]
    ranked = sorted(pairs, key=lambda p: (-p[0], p[1], p[2]))
    return {k: sum(1 for _, i, j in ranked[:k] if (i, j) in linked) / k
            for k in ks}


def auc_rank_sum_oracle(scores, positive):
    """Mann-Whitney AUC with average ranks on ties, from one sort of every
    score."""
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - 0.5 * (counts - 1))[inverse]
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def softmax_objective_oracle(X, y, W, b, l2):
    """(loss, dW, db) of mean softmax cross-entropy + 0.5 * l2 * ||W||^2
    (bias unpenalised) at weights W (C, D) and bias b (C,), as the
    definition reads: sample-major logits, log-softmax, a one-hot."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    onehot = np.eye(W.shape[0])[np.asarray(y)]
    z = X @ W.T + b
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -np.sum(onehot * logp) / n + 0.5 * l2 * float(np.sum(W ** 2))
    diff = (np.exp(logp) - onehot) / n
    return float(loss), diff.T @ X + l2 * W, diff.sum(axis=0)


def softmax_newton_oracle(X, y, n_classes, l2, grad_tol=1e-12, max_iter=100):
    """(loss, W, b) at the optimum of mean softmax cross-entropy
    + 0.5 * l2 * ||W||^2 (bias unpenalised), by Newton's method on all
    C * (D + 1) parameters with a halving line search.

    The Hessian is the mean over samples of kron(diag(p) - p p^T, x x^T)
    with x = (features, 1), plus l2 on the weight entries. Adding one
    constant to every bias changes nothing, so it is singular along that
    direction; the least-squares solve takes the minimum-norm step.
    """
    X = np.asarray(X, dtype=np.float64)
    n, D = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    ridge = np.tile(np.r_[np.full(D, l2), 0.0], n_classes)

    def loss_grad(theta):
        Wa = theta.reshape(n_classes, D + 1)
        loss, dW, db = softmax_objective_oracle(X, y, Wa[:, :D], Wa[:, D], l2)
        return loss, np.hstack([dW, db[:, None]]).reshape(-1), Wa

    theta = np.zeros(n_classes * (D + 1))
    loss, grad, Wa = loss_grad(theta)
    for _ in range(max_iter):
        if np.linalg.norm(grad) <= grad_tol:
            break
        z = Xa @ Wa.T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        cov = (p[:, :, None] * np.eye(n_classes)
               - p[:, :, None] * p[:, None, :])
        H = np.einsum("icj,ia,ib->cajb", cov, Xa, Xa).reshape(
            theta.size, theta.size) / n + np.diag(ridge)
        delta = np.linalg.lstsq(H, -grad, rcond=None)[0]
        step = 1.0
        while step > 1e-12:
            new = loss_grad(theta + step * delta)
            if new[0] <= loss:
                break
            step *= 0.5
        else:
            break
        theta = theta + step * delta
        loss, grad, Wa = new
    return loss, Wa[:, :D], Wa[:, D]


def binary_newton_oracle(X, y, l2, start=None):
    """(v, c, Hessians built) minimising mean log-loss of sigmoid(X v + c)
    + l2/4 ||v||^2 by plain Newton steps: a fresh Hessian at every
    iteration, a halving line search with an Armijo fraction of 1e-4, and
    the two-class fit's stopping rules (gradient norm at most
    1e-10 * (1 + loss), or a predicted decrease below the loss's
    resolution), from [v | c] = ``start`` or zero."""
    X = np.asarray(X, dtype=np.float64)
    n, D = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    yf = np.asarray(y, dtype=np.float64)
    penalty = np.r_[np.full(D, 0.5 * l2), 0.0]
    eps = float(np.finfo(np.float64).eps)

    def loss_of(theta):
        z = Xa @ theta
        return float(np.mean(np.logaddexp(0.0, z) - yf * z)
                     + 0.5 * np.sum(penalty * theta ** 2))

    theta = np.zeros(D + 1) if start is None else np.array(start, dtype=float)
    loss, builds = loss_of(theta), 0
    while True:
        p = 1.0 / (1.0 + np.exp(-(Xa @ theta)))
        grad = Xa.T @ (p - yf) / n + penalty * theta
        if np.linalg.norm(grad) <= 1e-10 * (1.0 + loss):
            break
        hess = (Xa * (p * (1.0 - p))[:, None]).T @ Xa / n + np.diag(penalty)
        builds += 1
        delta = np.linalg.solve(hess, -grad)
        slope, step = float(grad @ delta), 1.0
        while eps * loss < -slope * step:
            new = loss_of(theta + step * delta)
            if new < loss and new <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        theta, loss = theta + step * delta, new
    return theta[:D], float(theta[D]), builds


def edge_affinity_oracle(U, src, dst):
    """(mean, per-edge values) of sigmoid(-||u_src - u_dst||^2), gathered
    and reduced in one pass over all edges, with the package's sigmoid
    formula exp(min(x, 0)) / (1 + exp(-|x|))."""
    diff = U[src] - U[dst]
    x = -(diff ** 2).sum(axis=1)
    sig = np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(np.minimum(x, -x)))
    return float(np.mean(sig)), sig


def triangle_pairs_oracle(indices, V):
    """(i, j) lists with i < j for linear indices over the upper triangle of
    a V-node matrix, rows in order: row i holds V - 1 - i pairs, so it
    starts after the pairs of the rows before it."""
    starts, total = [], 0
    for i in range(V - 1):
        starts.append(total)
        total += V - 1 - i
    rows, cols = [], []
    for index in indices:
        if not 0 <= index < total:
            raise IndexError(index)
        i = bisect.bisect_right(starts, index) - 1
        rows.append(i)
        cols.append(i + 1 + index - starts[i])
    return rows, cols


def _numbered_lines_oracle(path):
    """(line number, line) of a UTF-8 text file read with universal newlines
    and a leading byte-order mark skipped; a line holding bytes that are not
    UTF-8 raises ParseError naming it."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ParseError(f"line {lineno}: byte 0x{byte:02x} is "
                                     f"not valid UTF-8") from None
            yield lineno, line


def parse_edge_list_oracle(path, weighted=False):
    """One line at a time: validate, drop self-loops, stably sort by the
    float timestamp, then number epochs and node ids by first appearance."""
    rows = []  # (raw_time_value, order, src_tok, dst_tok, weight)
    dropped = 0
    for lineno, line in _numbered_lines_oracle(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        want = (3, 4) if weighted else (3,)
        if len(parts) not in want:
            raise ParseError(f"line {lineno}: expected "
                             f"{' or '.join(str(w) for w in want)} fields, "
                             f"got {len(parts)}")
        src_tok, dst_tok, time_tok = parts[0], parts[1], parts[2]
        try:
            tval = float(time_tok)
        except ValueError:
            raise ParseError(f"line {lineno}: bad timestamp {time_tok!r}") from None
        if not math.isfinite(tval):
            raise ParseError(f"line {lineno}: non-finite timestamp {time_tok!r}")
        w = 1.0
        if len(parts) == 4:
            try:
                w = float(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad weight {parts[3]!r}") from None
            if not math.isfinite(w) or w <= 0:
                raise ParseError(f"line {lineno}: weight must be positive, "
                                 f"got {parts[3]!r}")
        if src_tok == dst_tok:
            dropped += 1
            continue
        rows.append((tval, len(rows), src_tok, dst_tok, w))
    if not rows:
        raise ParseError("no events found (empty or comment-only file)")
    rows.sort(key=lambda r: (r[0], r[1]))
    epoch_of, id_of, raw_ids = {}, {}, []
    src, dst, time, weight = [], [], [], []
    for tval, _, s_tok, d_tok, w in rows:
        if tval not in epoch_of:
            epoch_of[tval] = len(epoch_of) + 1
        for tok in (s_tok, d_tok):
            if tok not in id_of:
                id_of[tok] = len(raw_ids)
                raw_ids.append(tok)
        src.append(id_of[s_tok])
        dst.append(id_of[d_tok])
        time.append(epoch_of[tval])
        weight.append(w)
    return TemporalNetwork(src=np.array(src, dtype=np.int64),
                           dst=np.array(dst, dtype=np.int64),
                           time=np.array(time, dtype=np.int64),
                           weight=np.array(weight, dtype=np.float64),
                           node_count=len(raw_ids), raw_ids=tuple(raw_ids),
                           epoch_count=len(epoch_of),
                           self_loops_dropped=dropped)


def parse_labels_oracle(path, net):
    """One line at a time: `node_raw_id label`, classes numbered by first
    appearance."""
    id_of = {tok: i for i, tok in enumerate(net.raw_ids)}
    ids, labels, class_of, names, seen = [], [], {}, [], set()
    for lineno, line in _numbered_lines_oracle(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        node_tok, label_tok = parts
        if node_tok not in id_of:
            raise ParseError(f"line {lineno}: unknown node id {node_tok!r}")
        if id_of[node_tok] in seen:
            raise ParseError(f"line {lineno}: duplicate label for node {node_tok!r}")
        if label_tok not in class_of:
            class_of[label_tok] = len(names)
            names.append(label_tok)
        seen.add(id_of[node_tok])
        ids.append(id_of[node_tok])
        labels.append(class_of[label_tok])
    if not ids:
        raise ParseError("no labels found")
    return LabelTable(node_ids=np.array(ids, dtype=np.int64),
                      labels=np.array(labels, dtype=np.int64),
                      n_classes=len(names))
