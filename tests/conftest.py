import os
import pathlib
import subprocess
import sys

import numpy as np

import sobcurve
from sobcurve.curve import FourierCurve


def circle(radius=1.0, order=1, center=(0.0, 0.0)):
    """Circle of given radius as an exact Fourier curve of the given order."""
    cos = np.zeros((order + 1, 2))
    sin = np.zeros((order, 2))
    cos[0] = center
    cos[1, 0] = radius
    sin[0, 1] = radius
    return FourierCurve(cos, sin)


def perturbed_circle(rng, order=4, scale=0.05):
    """Unit circle plus a random smooth perturbation (stays immersed)."""
    decay = 1.0 / (1.0 + np.arange(order + 1)[:, None]) ** 2
    cos = rng.normal(size=(order + 1, 2)) * scale * decay
    sin = rng.normal(size=(order, 2)) * scale * decay[1:]
    base = circle(order=order)
    return FourierCurve(base.cos_coeffs + cos, base.sin_coeffs + sin)


def nearby_pair(rng, order=4, scale=0.05):
    """Two random immersed curves close to each other (positive tangent
    correlation, suitable for every energy flavor)."""
    first = perturbed_circle(rng, order, scale)
    decay = 1.0 / (1.0 + np.arange(order + 1)[:, None]) ** 2
    cos = rng.normal(size=(order + 1, 2)) * scale * decay
    sin = rng.normal(size=(order, 2)) * scale * decay[1:]
    second = FourierCurve(first.cos_coeffs + cos, first.sin_coeffs + sin)
    return first, second


def tangent_field(rng, order, dim=2, scale=1.0):
    """Random tangent-field coefficients with mild decay."""
    decay = 1.0 / (1.0 + np.arange(order + 1)[:, None])
    cos = rng.normal(size=(order + 1, dim)) * scale * decay
    sin = rng.normal(size=(order, dim)) * scale * decay[1:]
    return FourierCurve(cos, sin)


def rotate(curve, angle):
    """Rotate a planar curve (or field) rigidly by the given angle."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return FourierCurve(curve.cos_coeffs @ rot.T, curve.sin_coeffs @ rot.T)


def translate(curve, offset):
    cos = curve.cos_coeffs.copy()
    cos[0] += np.asarray(offset, dtype=float)
    return FourierCurve(cos, curve.sin_coeffs)


def run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter that imports
    this ``sobcurve``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(sobcurve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def drop_order(record):
    del record["order"]


def short_cos(record):
    record["cos"] = record["cos"][:-1]


def long_sin(record):
    record["sin"] = record["sin"] + [[0.0, 0.0]]


def short_row(record):
    record["cos"][1] = record["cos"][1][:1]


#: Malformed curve records: a mutation of the record of an order-2 planar
#: curve, and the message that loading it raises.
MALFORMED = [
    (drop_order, "malformed curve record: 'order'"),
    (short_cos, "cos coefficient count 2 does not match order 2"),
    (long_sin, "sin coefficient count 3 does not match order 2"),
    (short_row, "coefficient row of length 1 != dim 2"),
]

