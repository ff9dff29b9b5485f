"""Independent naive oracles.

Everything here is written with explicit Python loops and the math module,
deliberately avoiding the library's vectorized code paths. These are the
reference implementations the fast paths are checked against.
"""

import math


def softmax_1d(xs):
    m = xs[0]
    for x in xs:
        m = max(m, x)
    exps = [math.exp(x - m) for x in xs]
    total = 0.0
    for e in exps:
        total += e
    return [e / total for e in exps]


def kl_1d(ps, qs):
    total = 0.0
    for p, q in zip(ps, qs):
        if p > 0.0:
            total += p * (math.log(p) - math.log(q))
    return total


def layer_norm_1d(xs, gamma, beta, eps):
    d = len(xs)
    mu = sum(xs) / d
    var = sum((x - mu) ** 2 for x in xs) / d
    inv = 1.0 / math.sqrt(var + eps)
    return [gamma[j] * (xs[j] - mu) * inv + beta[j] for j in range(d)]


def gelu_scalar(x):
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def bilinear_resize_naive(image, out_h, out_w):
    """Per-pixel bilinear resample of C x H x W nested lists, no corner alignment.

    Source coordinate (i + 0.5) * (src / dst) - 0.5, clamped; each output is
    ((a*(1-fx) + b*fx) * (1-fy)) + ((c*(1-fx) + d*fx) * fy).
    """
    h, w = len(image[0]), len(image[0][0])

    def coord(i, n_src, n_dst):
        s = min(max((i + 0.5) * (n_src / n_dst) - 0.5, 0.0), n_src - 1.0)
        lo = math.floor(s)
        return lo, min(lo + 1, n_src - 1), s - lo

    out = []
    for ch in image:
        plane = []
        for i in range(out_h):
            y0, y1, fy = coord(i, h, out_h)
            row = []
            for j in range(out_w):
                x0, x1, fx = coord(j, w, out_w)
                top = ch[y0][x0] * (1 - fx) + ch[y0][x1] * fx
                bot = ch[y1][x0] * (1 - fx) + ch[y1][x1] * fx
                row.append(top * (1 - fy) + bot * fy)
            plane.append(row)
        out.append(plane)
    return out


def view_draws(size, rng, config):
    """The (crop box, flip, jitter order, jitter factors) that ``make_views`` draws from ``rng``.

    Replays its draws in its order through the library's samplers, which
    ``test_augment`` pins separately against frozen goldens.
    """
    from fusekd import augment as aug

    box = aug.sample_crop_box(size, rng, (config.scale_min, config.scale_max))
    flip = bool(rng.random() < config.flip_prob)
    order, factors = aug.sample_jitter(rng, (config.brightness, config.contrast, config.saturation))
    return box, flip, order, factors


def fuse_naive(mats):
    """Triple-loop elementwise sum of equally shaped nested lists (2-D)."""
    rows, cols = len(mats[0]), len(mats[0][0])
    out = [[0.0] * cols for _ in range(rows)]
    for m in mats:
        for r in range(rows):
            for c in range(cols):
                out[r][c] += m[r][c]
    return out


def tokens_to_map_naive(tokens, grid_h, grid_w):
    """tokens (N+1) x D nested lists -> map D x H' x W' via the index formula."""
    d = len(tokens[0])
    out = [[[0.0] * grid_w for _ in range(grid_h)] for _ in range(d)]
    for c in range(d):
        for r in range(grid_h):
            for w in range(grid_w):
                out[c][r][w] = tokens[1 + r * grid_w + w][c]
    return out


def tfd_naive(student, target):
    """(N+1) x D nested lists; per-token channel KL averaged over tokens."""
    n1 = len(student)
    total = 0.0
    for n in range(n1):
        total += kl_1d(softmax_1d(student[n]), softmax_1d(target[n]))
    return total / n1


def sfd_naive(student_map, target_map):
    """D x H x W nested lists; per-channel spatial KL averaged over channels."""
    d = len(student_map)
    total = 0.0
    for c in range(d):
        s_flat = [v for row in student_map[c] for v in row]
        t_flat = [v for row in target_map[c] for v in row]
        total += kl_1d(softmax_1d(s_flat), softmax_1d(t_flat))
    return total / d


def mse_token_naive(student, target):
    n1 = len(student)
    total = 0.0
    for n in range(n1):
        for j in range(len(student[n])):
            total += (student[n][j] - target[n][j]) ** 2
    return total / n1


def mse_spatial_naive(student_map, target_map):
    d = len(student_map)
    total = 0.0
    for c in range(d):
        for r in range(len(student_map[c])):
            for w in range(len(student_map[c][r])):
                total += (student_map[c][r][w] - target_map[c][r][w]) ** 2
    return total / d


def adamw_trajectory_naive(theta0, grads, lrs, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
    """Scalar AdamW over a gradient sequence; returns the theta trajectory."""
    theta = theta0
    m = 0.0
    v = 0.0
    out = []
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * theta)
        out.append(theta)
    return out


def naive_encode(params, image, image_size, patch_size, depth, embed_dim, num_heads, mlp_ratio=4, eps=1e-6):
    """Loop transformer forward. `params` maps tensor names (as produced by the
    encoder) to nested lists; `image` is 3 x H x W nested lists.
    Returns the (N+1) x D token matrix after the final layer norm."""
    p = patch_size
    g = image_size // p
    n = g * g
    d = embed_dim
    dh = d // num_heads
    hidden = mlp_ratio * d

    # patchify: row-major grid; channel-major then row-major pixels inside a patch
    patches = []
    for gr in range(g):
        for gc in range(g):
            vec = []
            for c in range(3):
                for rr in range(p):
                    for cc in range(p):
                        vec.append(image[c][gr * p + rr][gc * p + cc])
            patches.append(vec)

    def matvec(w, x):  # w: in x out
        out = [0.0] * len(w[0])
        for i, xi in enumerate(x):
            row = w[i]
            for j in range(len(row)):
                out[j] += xi * row[j]
        return out

    tokens = []
    pos = params["pos_embed"]
    cls_row = [params["cls_token"][j] + pos[0][j] for j in range(d)]
    tokens.append(cls_row)
    for i in range(n):
        proj = matvec(params["patch_w"], patches[i])
        tokens.append(
            [proj[j] + params["patch_b"][j] + pos[i + 1][j] for j in range(d)]
        )

    for layer in range(depth):
        pre = f"b{layer}."
        normed = [
            layer_norm_1d(tok, params[pre + "ln1_g"], params[pre + "ln1_b"], eps)
            for tok in tokens
        ]
        qkv = []
        for tok in normed:
            v = matvec(params[pre + "qkv_w"], tok)
            qkv.append([v[j] + params[pre + "qkv_b"][j] for j in range(3 * d)])
        t_len = n + 1
        ctx = [[0.0] * d for _ in range(t_len)]
        for h in range(num_heads):
            lo = h * dh
            q = [row[lo : lo + dh] for row in qkv]
            k = [row[d + lo : d + lo + dh] for row in qkv]
            v = [row[2 * d + lo : 2 * d + lo + dh] for row in qkv]
            scale = 1.0 / math.sqrt(dh)
            for i in range(t_len):
                scores = []
                for j in range(t_len):
                    s = 0.0
                    for a in range(dh):
                        s += q[i][a] * k[j][a]
                    scores.append(s * scale)
                attn = softmax_1d(scores)
                for j in range(t_len):
                    w = attn[j]
                    for a in range(dh):
                        ctx[i][lo + a] += w * v[j][a]
        for i in range(t_len):
            proj = matvec(params[pre + "proj_w"], ctx[i])
            for j in range(d):
                tokens[i][j] += proj[j] + params[pre + "proj_b"][j]
        normed = [
            layer_norm_1d(tok, params[pre + "ln2_g"], params[pre + "ln2_b"], eps)
            for tok in tokens
        ]
        for i in range(t_len):
            h1 = matvec(params[pre + "fc1_w"], normed[i])
            h1 = [gelu_scalar(h1[j] + params[pre + "fc1_b"][j]) for j in range(hidden)]
            h2 = matvec(params[pre + "fc2_w"], h1)
            for j in range(d):
                tokens[i][j] += h2[j] + params[pre + "fc2_b"][j]

    return [
        layer_norm_1d(tok, params["ln_f_g"], params["ln_f_b"], eps) for tok in tokens
    ]
