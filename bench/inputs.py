"""Seeded inputs of the benchmark workloads and their independent references.

Every workload is a fixed list of operations; the seed changes only the
values inside the inputs (random amplitudes, Gaussian couplings), never the
sizes, splits or commands, so every seed asks for the same work.

The references are computed here with numpy alone, never through cvconc:
each state's amplitudes are reshaped to member x complement, scaled by the
square root of the quadrature weights, and decomposed by an SVD.  With the
singular values s_i the squared concurrence is E^2 = 2 (1 - sum s_i^4)
(Rungta et al. 2001) and the smallest eigenvalue of the partial transpose is
-s_1 s_2 (Vidal & Werner 2002).

Write the input files of a workload, with a manifest of the operations and
their reference values:

    python3 bench/inputs.py --workload cli-concurrence --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field

import numpy as np

LARGEST_CLASS = {"cli-concurrence": "64^2", "cli-verify": "32^2", "lib-corpus": "8^3"}

# Grid files span [-BOX, BOX] on every axis, the CLI's default --box.
BOX = 8.0
# Expected verdict: entangled exactly when the second Schmidt weight exceeds this.
SCHMIDT_SEPARABLE = 1e-12

# The two-mode Gaussian of the known verdict fault: a = b = 1, c = 0.01.
FAULT_VERDICT_A = [[1.0, 0.005], [0.005, 1.0]]
# The three-mode Gaussian whose 18^3 grid exceeds the dense-operator cap.
FAULT_CAP_A = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]

FAULT_VERDICT = (
    "verdict 'separable' for E2 = 2.5e-5 at --grid 64: decide_separability "
    "thresholds the largest weighted wedge coefficient, which shrinks with the grid "
    "spacing (ROADMAP item 1)"
)
FAULT_CAP = (
    "exit 1 'dense operator would have edge 5832 > 4096' after the route work "
    "(transpose._MAX_OPERATOR_DIM, ROADMAP items 2 and 4)"
)


@dataclass
class Reference:
    """Independent reference values of one state across one split."""

    sigma: np.ndarray                 # Schmidt coefficients, descending
    block: np.ndarray = None          # unweighted member x complement amplitudes
    closed_form: float = None         # two-mode Gaussian closed form of E^2
    closed_form_tol: float = None     # allowed discretization error against it
    family: dict = field(default_factory=dict)   # p -> family_measure value

    @property
    def e2(self) -> float:
        return float(2.0 * (1.0 - np.sum(self.sigma**4)))

    @property
    def schmidt2(self) -> float:
        return float(self.sigma[1] ** 2) if self.sigma.size > 1 else 0.0

    @property
    def verdict(self) -> str:
        return "entangled" if self.schmidt2 > SCHMIDT_SEPARABLE else "separable"

    @property
    def ppt_min(self) -> float:
        return float(-self.sigma[0] * self.sigma[1]) if self.sigma.size > 1 else 0.0


@dataclass
class LibCase:
    """Library inputs of one lib-corpus state, as plain arrays."""

    axes: list                        # [(min, max, points)] per axis
    members: tuple
    amplitudes: np.ndarray = None     # grid states
    precision: np.ndarray = None      # Gaussian states, discretized on `axes`
    gh_points: int = None             # Gauss-Hermite points for the numeric route
    gh_reference: Reference = None


@dataclass
class Op:
    """One operation of a pass: a CLI command or one state's library pass."""

    label: str
    size_class: str
    ref: Reference
    command: str = None               # concurrence | verify | factor
    argv: list = None                 # CLI arguments, file names relative to the input dir
    lib: LibCase = None
    # A fault of the program that makes this operation fail on every run, and
    # the start every problem the checks report for it must have.
    known_fault: str = None
    fault_sign: str = None


@dataclass
class Workload:
    name: str
    files: dict                       # file name -> JSON document
    ops: list


def midpoint_nodes(lo: float, hi: float, points: int) -> np.ndarray:
    delta = (hi - lo) / points
    return lo + (np.arange(points) + 0.5) * delta


def schmidt(amplitudes, weights, members) -> tuple:
    """Schmidt coefficients of a state across a split, and its unweighted block.

    weights holds one 1-d array of quadrature weights per axis.
    """
    n = amplitudes.ndim
    rest = tuple(k for k in range(n) if k not in members)
    order = tuple(members) + rest
    gm = int(np.prod([amplitudes.shape[k] for k in members]))
    block = np.transpose(amplitudes, order).reshape(gm, -1)
    w = np.ones(())
    for k in order:
        w = np.multiply.outer(w, weights[k])
    G = block * np.sqrt(w.reshape(gm, -1))
    sigma = np.linalg.svd(G / np.linalg.norm(G), compute_uv=False)
    return sigma, block


def midpoint_weights(axes) -> list:
    return [np.full(p, (hi - lo) / p) for lo, hi, p in axes]


def normalized(amplitudes, axes) -> np.ndarray:
    cell = float(np.prod([(hi - lo) / p for lo, hi, p in axes]))
    return amplitudes / np.sqrt(np.sum(np.abs(amplitudes) ** 2) * cell)


def random_amplitudes(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def product_amplitudes(rng, shape, members) -> np.ndarray:
    """Random state that factors as (member axes) x (complement axes)."""
    rest = tuple(k for k in range(len(shape)) if k not in members)
    f = random_amplitudes(rng, tuple(shape[k] for k in members))
    g = random_amplitudes(rng, tuple(shape[k] for k in rest))
    joint = np.multiply.outer(f, g)
    return np.transpose(joint, np.argsort(tuple(members) + rest))


def sample_gaussian(A, axes) -> np.ndarray:
    """exp(-x^T A x / 2) at the midpoint nodes, normalized on the grid."""
    mesh = np.meshgrid(*[midpoint_nodes(*ax) for ax in axes], indexing="ij")
    x = np.stack(mesh, axis=-1)
    psi = np.exp(-0.5 * np.einsum("...i,ij,...j->...", x, np.asarray(A), x))
    return normalized(psi.astype(complex), axes)


def sample_gaussian_gh(A, points: int) -> tuple:
    """exp(-x^T A x / 2) on a two-axis Gauss-Hermite product rule (scale 1)."""
    x, w = np.polynomial.hermite.hermgauss(points)
    weights = w * np.exp(x**2)
    X, Y = np.meshgrid(x, x, indexing="ij")
    A = np.asarray(A)
    psi = np.exp(-0.5 * (A[0, 0] * X**2 + 2.0 * A[0, 1] * X * Y + A[1, 1] * Y**2))
    return psi.astype(complex), [weights, weights]


def two_mode_closed_form(A) -> float:
    """2 [1 - sqrt(4ab - c^2) / (2 sqrt(ab))] for exp(-(a x^2 + b y^2 + c x y) / 2)."""
    a, b, c = A[0][0], A[1][1], 2.0 * A[0][1]
    return float(2.0 * (1.0 - np.sqrt(4.0 * a * b - c * c) / (2.0 * np.sqrt(a * b))))


def family_reference(block, wm, wrest) -> dict:
    """family_measure(f='identity', q=1) for p = 1 and p = inf, by the
    definition: the wedge of every pair of member slices over all complement
    index pairs, normed, then integrated over the member pair."""
    D = block[:, None, :, None] * block[None, :, None, :]
    mag = np.abs(D - D.transpose(0, 1, 3, 2))
    pair = np.outer(wrest, wrest)
    p1 = 0.5 * np.einsum("abxy,xy->ab", mag, pair)
    pinf = mag.reshape(mag.shape[0], mag.shape[1], -1).max(axis=2)
    mm = np.outer(wm, wm)
    return {1: float(np.sum(p1 * mm)), "inf": float(np.sum(pinf * mm))}


def grid_document(axes, amplitudes) -> dict:
    flat = amplitudes.reshape(-1)
    return {
        "axes": [{"min": lo, "max": hi, "points": p} for lo, hi, p in axes],
        "amplitudes_real": flat.real.tolist(),
        "amplitudes_imag": flat.imag.tolist(),
    }


def gaussian_document(A) -> dict:
    A = np.asarray(A, dtype=float)
    return {"n": A.shape[0], "A_real": A.tolist(), "A_imag": np.zeros_like(A).tolist()}


def random_two_mode_precision(rng) -> np.ndarray:
    """a, b in [0.7, 1.3] and coupling c = r 2 sqrt(ab) with 0.15 <= |r| <= 0.5."""
    a, b = rng.uniform(0.7, 1.3, size=2)
    r = rng.uniform(0.15, 0.5) * rng.choice([-1.0, 1.0])
    half = r * np.sqrt(a * b)
    return np.array([[a, half], [half, b]])


def random_three_mode_precision(rng) -> np.ndarray:
    """Q diag(lambda) Q^T with lambda in [0.7, 1.2] and a random rotation Q."""
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return Q @ np.diag(rng.uniform(0.7, 1.2, size=3)) @ Q.T


def members_text(members) -> str:
    return ",".join(str(k) for k in members)


def box_axes(shape, box=BOX) -> list:
    return [(-box, box, p) for p in shape]


def grid_op(command, fname, amplitudes, axes, members, size_class, extra=()) -> Op:
    sigma, block = schmidt(amplitudes, midpoint_weights(axes), members)
    return Op(
        label=f"{command} {fname} --M {members_text(members)}",
        size_class=size_class,
        ref=Reference(sigma, block=block),
        command=command,
        argv=[command, fname, "--M", members_text(members), *extra],
    )


def gaussian_op(command, fname, A, points, members, box=BOX, fault=(None, None)) -> Op:
    n = len(A)
    axes = box_axes((points,) * n, box)
    sigma, block = schmidt(sample_gaussian(A, axes), midpoint_weights(axes), members)
    ref = Reference(sigma, block=block)
    if n == 2:
        ref.closed_form = two_mode_closed_form(A)
        ref.closed_form_tol = 1e-6
    argv = [command, fname, "--M", members_text(members), "--grid", str(points)]
    if box != BOX:
        argv += ["--box", repr(box)]
    return Op(
        label=" ".join(argv),
        size_class=f"{points}^{n}",
        ref=ref,
        command=command,
        argv=argv,
        known_fault=fault[0],
        fault_sign=fault[1],
    )


def cli_concurrence(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    files, ops = {}, []
    for points in (48, 64):
        axes = box_axes((points, points))
        amp = normalized(random_amplitudes(rng, (points, points)), axes)
        fname = f"grid{points}.json"
        files[fname] = grid_document(axes, amp)
        ops.append(grid_op("concurrence", fname, amp, axes, (0,), f"{points}^2"))
    A = random_two_mode_precision(rng)
    files["gauss2.json"] = gaussian_document(A)
    for points in (48, 64):
        ops.append(gaussian_op("concurrence", "gauss2.json", A, points, (0,)))
    files["gauss2-fault.json"] = gaussian_document(FAULT_VERDICT_A)
    ops.append(gaussian_op("concurrence", "gauss2-fault.json", np.array(FAULT_VERDICT_A),
                           64, (0,), fault=(FAULT_VERDICT, "verdict")))
    axes = box_axes((16, 16, 16))
    amp = normalized(random_amplitudes(rng, (16, 16, 16)), axes)
    files["grid16x3.json"] = grid_document(axes, amp)
    for members in ((0,), (0, 2)):
        ops.append(grid_op("concurrence", "grid16x3.json", amp, axes, members, "16^3"))
    axes = box_axes((48, 48))
    amp = normalized(product_amplitudes(rng, (48, 48), (0,)), axes)
    files["product48.json"] = grid_document(axes, amp)
    ops.append(grid_op("factor", "product48.json", amp, axes, (0,), "48^2",
                       extra=("--out-m", "factor-m.json", "--out-rest", "factor-rest.json")))
    return Workload("cli-concurrence", files, ops)


def cli_verify(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    files, ops = {}, []
    for points in (24, 32):
        axes = box_axes((points, points))
        amp = normalized(random_amplitudes(rng, (points, points)), axes)
        fname = f"grid{points}.json"
        files[fname] = grid_document(axes, amp)
        ops.append(grid_op("verify", fname, amp, axes, (0,), f"{points}^2"))
    A = random_two_mode_precision(rng)
    files["gauss2.json"] = gaussian_document(A)
    for points in (24, 32):
        ops.append(gaussian_op("verify", "gauss2.json", A, points, (0,)))
    # Three-mode grids use a box with spacing near 1 so the Gaussian files
    # lose no noticeable mass on 8 or 10 points per axis.
    for points, grid_members, box, gauss_members in ((8, (0,), 4.0, (0, 2)),
                                                     (10, (0, 2), 4.5, (0,))):
        axes = box_axes((points,) * 3, box)
        amp = normalized(random_amplitudes(rng, (points,) * 3), axes)
        fname = f"grid{points}x3.json"
        files[fname] = grid_document(axes, amp)
        ops.append(grid_op("verify", fname, amp, axes, grid_members, f"{points}^3"))
        A3 = random_three_mode_precision(rng)
        gname = f"gauss3-{points}.json"
        files[gname] = gaussian_document(A3)
        ops.append(gaussian_op("verify", gname, A3, points, gauss_members, box=box))
    files["gauss3-fault.json"] = gaussian_document(FAULT_CAP_A)
    ops.append(gaussian_op("verify", "gauss3-fault.json", np.array(FAULT_CAP_A), 18, (0,),
                           fault=(FAULT_CAP, "exit code 1")))
    return Workload("cli-verify", files, ops)


def lib_op(kind, case: LibCase, amplitudes, closed_form=None, closed_form_tol=None) -> Op:
    """A lib-corpus operation; amplitudes are the state's samples on case.axes."""
    axes, members = case.axes, case.members
    weights = midpoint_weights(axes)
    sigma, block = schmidt(amplitudes, weights, members)
    rest = [k for k in range(len(axes)) if k not in members]
    wm = np.prod(np.meshgrid(*[weights[k] for k in members], indexing="ij"), axis=0)
    wr = np.prod(np.meshgrid(*[weights[k] for k in rest], indexing="ij"), axis=0)
    ref = Reference(sigma, block=block, closed_form=closed_form, closed_form_tol=closed_form_tol,
                    family=family_reference(block, wm.ravel(), wr.ravel()))
    shape = "x".join(str(p) for _, _, p in axes)
    return Op(label=f"lib {kind} {shape} M={members_text(members)}",
              size_class=f"{axes[0][2]}^{len(axes)}", ref=ref, lib=case)


def lib_corpus(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for points in (8, 12, 16):
        axes = box_axes((points, points), 6.0)
        amp = normalized(random_amplitudes(rng, (points,) * 2), axes)
        ops.append(lib_op("random", LibCase(axes, (0,), amplitudes=amp), amp))
        amp = normalized(product_amplitudes(rng, (points,) * 2, (0,)), axes)
        ops.append(lib_op("product", LibCase(axes, (0,), amplitudes=amp), amp))
    for points in (6, 7, 8):
        axes = box_axes((points,) * 3, 4.0)
        for members in ((0,), (0, 2)):
            amp = normalized(random_amplitudes(rng, (points,) * 3), axes)
            ops.append(lib_op("random", LibCase(axes, members, amplitudes=amp), amp))
            amp = normalized(product_amplitudes(rng, (points,) * 3, members), axes)
            ops.append(lib_op("product", LibCase(axes, members, amplitudes=amp), amp))
    axes = box_axes((16, 16), 6.0)
    for gh_points in (16, 20, 24):
        A = random_two_mode_precision(rng)
        closed = two_mode_closed_form(A)
        gh_amp, gh_weights = sample_gaussian_gh(A, gh_points)
        gh_ref = Reference(schmidt(gh_amp, gh_weights, (0,))[0], closed_form=closed,
                           closed_form_tol=1e-6)
        case = LibCase(axes, (0,), precision=A, gh_points=gh_points, gh_reference=gh_ref)
        # Midpoint spacing 0.75: the grid E^2 sits within ~5e-6 of the closed form.
        ops.append(lib_op(f"gaussian gh={gh_points}", case, sample_gaussian(A, axes),
                          closed_form=closed, closed_form_tol=1e-4))
    return Workload("lib-corpus", {}, ops)


BUILDERS = {"cli-concurrence": cli_concurrence, "cli-verify": cli_verify,
            "lib-corpus": lib_corpus}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> Workload:
    return BUILDERS[workload](seed)


def write_files(files: dict, directory: str):
    """Write each JSON document under its file name."""
    for name, document in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(document, fh)
            fh.write("\n")


def manifest(workload: Workload) -> dict:
    ops = []
    for op in workload.ops:
        entry = {"label": op.label, "size_class": op.size_class, "argv": op.argv,
                 "E2_ref": op.ref.e2, "verdict_ref": op.ref.verdict,
                 "ppt_min_ref": op.ref.ppt_min, "closed_form": op.ref.closed_form,
                 "known_fault": op.known_fault}
        ops.append(entry)
    return {"workload": workload.name, "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the files")
    args = parser.parse_args(argv)
    workload = build(args.workload, args.seed)
    files = dict(workload.files, **{"manifest.json": manifest(workload)})
    for k, op in enumerate(workload.ops):
        if op.lib is not None:
            files[f"state{k:02d}.json"] = (
                gaussian_document(op.lib.precision) if op.lib.precision is not None
                else grid_document(op.lib.axes, op.lib.amplitudes))
    os.makedirs(args.out, exist_ok=True)
    write_files(files, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
