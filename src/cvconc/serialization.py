"""JSON readers and writers for the state file formats."""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .states import GaussianPureState, GridAxis, GridState


def grid_state_to_dict(state: GridState) -> dict:
    flat = state.amplitudes.reshape(-1)
    return {
        "axes": [{"min": ax.min, "max": ax.max, "points": ax.points} for ax in state.axes],
        "amplitudes_real": flat.real.tolist(),
        "amplitudes_imag": flat.imag.tolist(),
    }


def grid_state_from_dict(data: dict) -> GridState:
    try:
        axes = tuple(
            GridAxis(float(ax["min"]), float(ax["max"]), ax["points"])
            for ax in data["axes"]
        )
        re = np.asarray(data["amplitudes_real"], dtype=float)
        im = np.asarray(data["amplitudes_imag"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed grid state file: {exc}")
    if re.shape != im.shape:
        raise InputError("real and imaginary amplitude lists differ in length")
    amp = re + 1j * im
    amp.flags.writeable = False  # handed over, so the state keeps it uncopied
    return GridState(axes, amp)


def gaussian_to_dict(state: GaussianPureState) -> dict:
    return {
        "n": state.n,
        "A_real": state.A.real.tolist(),
        "A_imag": state.A.imag.tolist(),
    }


def gaussian_from_dict(data: dict) -> GaussianPureState:
    try:
        re = np.asarray(data["A_real"], dtype=float)
        im = np.asarray(data["A_imag"], dtype=float)
        n = data["n"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed Gaussian state file: {exc}")
    if re.shape != (n, n) or im.shape != (n, n):
        raise InputError("precision matrix shape does not match n")
    return GaussianPureState(re + 1j * im)


def load_state(path):
    """Read either state format, detected from the keys present."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise InputError(f"{path}: a state file holds a JSON object, not {type(data).__name__}")
    if "axes" in data:
        return grid_state_from_dict(data)
    if "A_real" in data:
        return gaussian_from_dict(data)
    raise InputError(f"{path}: neither a grid state nor a Gaussian state file")


def save_grid_state(state: GridState, path):
    # json.dumps encodes in C in one go; json.dump streams through the
    # pure-Python encoder.
    with open(path, "w") as fh:
        fh.write(json.dumps(grid_state_to_dict(state)) + "\n")
