"""Golden report bytes for every certificate branch.

Each case runs one scenario through ``run_scenario`` and compares the sha256
of the JSON report, and of the CSV rendering of every listed series, against
digests recorded before the certificate engine was unified.  The cases walk
the power / geometric / explicit tail models under each relation through
prop42 (with and without x), converge (boxes, inner, product), dirichlet,
action and select; the dense commands (ccr, fell, tensor, check-cocycle,
obstruction) have cases of their own.  Any change in a verdict, a tail bound,
a witness string, a residual, a term vector or a failed selection's message
shows up as a digest mismatch.  The fell cases stay below dimension 64, where
the eigenvalue bytes do not depend on the BLAS thread count.
"""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from twistlab.actions import (
    extension_condition,
    inner_outer_verdict,
    scenario_from_regular_vectors,
    scenario_from_rep_vectors,
)
from twistlab.cli import CliError, run_scenario
from twistlab.cocycles import MatrixCocycle, from_list, geometric_matrix_sequence
from twistlab.convergence import (
    dirichlet_condition,
    translation_series,
    twisted_rep_series,
)
from twistlab.groups import FolnerBox, IntegerLattice
from twistlab.reps import box_vector, pauli_rep
from twistlab.series import ExplicitModel, GeometricModel, PowerModel

SIDES_P2 = "power:c=1,p=2"
NORMS_G05 = "geometric:c=1,r=0.5"


def _bilinear_table(k, a_rank, b_rank, m):
    """sigma(a, b) = exp(2 pi i (a^T m b mod k) / k) on Z_k^a_rank x Z_k^b_rank."""
    a_els = list(product(range(k), repeat=a_rank))
    b_els = list(product(range(k), repeat=b_rank))
    phases = [[2.0 * math.pi * (sum(a[i] * m[i][j] * b[j] for i in range(a_rank)
                                     for j in range(b_rank)) % k) / k
               for b in b_els] for a in a_els]
    return {"table": {"a_moduli": [k] * a_rank, "b_moduli": [k] * b_rank, "phases": phases}}


# (name, command, params, n_max, csv series)
CASES = [
    # --- prop42: folner / reciprocal / norm / weighted clauses -------------
    ("p42-pow2-geo", "prop42", {"sides": SIDES_P2, "norms": NORMS_G05}, 60,
     ("sigma", "norms", "weighted")),
    ("p42-pow2-pow-3.5", "prop42", {"sides": SIDES_P2, "norms": "power:c=2,p=-3.5"}, 80, ()),
    ("p42-pow2-pow-2.5", "prop42", {"sides": SIDES_P2, "norms": "power:c=2,p=-2.5"}, 80,
     ("weighted",)),
    ("p42-pow2-pow-0.5", "prop42", {"sides": SIDES_P2, "norms": "power:c=1.5,p=-0.5"}, 50, ()),
    ("p42-pow2-pow-1", "prop42", {"sides": SIDES_P2, "norms": "power:c=1,p=-1"}, 50, ()),
    ("p42-pow2-pow-zero", "prop42", {"sides": SIDES_P2, "norms": "power:c=0,p=1"}, 40, ()),
    ("p42-pow2-geo-zero", "prop42", {"sides": SIDES_P2, "norms": "geometric:c=0,r=2"}, 40, ()),
    ("p42-pow2-geo1", "prop42", {"sides": SIDES_P2, "norms": "geometric:c=0.5,r=1"}, 40, ()),
    ("p42-pow2-geo1.2", "prop42", {"sides": SIDES_P2, "norms": "geometric:c=0.5,r=1.2"}, 40, ()),
    ("p42-pow2-pow-maj", "prop42",
     {"sides": SIDES_P2, "norms": "power:c=1,p=-0.5,rel=majorant"}, 40, ()),
    ("p42-pow2-pow-maj-3", "prop42",
     {"sides": SIDES_P2, "norms": "power:c=1,p=-3,rel=majorant"}, 40, ()),
    ("p42-pow2-pow-min-3", "prop42",
     {"sides": SIDES_P2, "norms": "power:c=1,p=-3,rel=minorant"}, 40, ()),
    ("p42-pow2-pow-min-0.5", "prop42",
     {"sides": SIDES_P2, "norms": "power:c=1,p=-0.5,rel=minorant"}, 40, ()),
    ("p42-pow2-geo-maj1.5", "prop42",
     {"sides": SIDES_P2, "norms": "geometric:c=1,r=1.5,rel=majorant"}, 40, ()),
    ("p42-pow2-geo-min0.5", "prop42",
     {"sides": SIDES_P2, "norms": "geometric:c=1,r=0.5,rel=minorant"}, 40, ()),
    ("p42-pow2-geo-min1", "prop42",
     {"sides": SIDES_P2, "norms": "geometric:c=1,r=1,rel=minorant"}, 40, ()),
    ("p42-pow2-explicit", "prop42",
     {"sides": SIDES_P2, "norms": "explicit:0.5,0.25,0.125,0.0625"}, 40, ("norms",)),
    ("p42-pow0.5-pow-3", "prop42", {"sides": "power:c=2,p=0.5", "norms": "power:c=1,p=-3"},
     60, ()),
    ("p42-pow0-pow-3", "prop42", {"sides": "power:c=3,p=0", "norms": "power:c=1,p=-3"}, 30, ()),
    ("p42-pow-neg-geo", "prop42",
     {"sides": "power:c=3,p=-0.5", "norms": NORMS_G05}, 30, ()),
    ("p42-pow1-pow-2.2", "prop42", {"sides": "power:c=1,p=1", "norms": "power:c=1,p=-2.2"},
     60, ()),
    ("p42-powmaj2-geo", "prop42",
     {"sides": "power:c=1,p=2,rel=majorant", "norms": NORMS_G05}, 40, ()),
    ("p42-powmaj0.5-geo", "prop42",
     {"sides": "power:c=1,p=0.5,rel=majorant", "norms": NORMS_G05}, 40, ()),
    ("p42-powmaj0-geo", "prop42",
     {"sides": "power:c=2,p=0,rel=majorant", "norms": "power:c=1,p=-0.5"}, 40, ()),
    ("p42-powmin2-pow-2.5", "prop42",
     {"sides": "power:c=1,p=2,rel=minorant", "norms": "power:c=1,p=-2.5"}, 40, ()),
    ("p42-powmin2-pow-3.5", "prop42",
     {"sides": "power:c=1,p=2,rel=minorant", "norms": "power:c=1,p=-3.5"}, 40, ()),
    ("p42-powmin0.5-geo", "prop42",
     {"sides": "power:c=1,p=0.5,rel=minorant", "norms": NORMS_G05}, 40, ()),
    ("p42-geo1.5-geo", "prop42", {"sides": "geometric:c=1,r=1.5", "norms": NORMS_G05}, 40,
     ("sigma", "weighted")),
    ("p42-geo3-geo0.5", "prop42", {"sides": "geometric:c=1,r=3", "norms": NORMS_G05}, 30, ()),
    ("p42-geo1.5-pow-3", "prop42",
     {"sides": "geometric:c=1,r=1.5", "norms": "power:c=1,p=-3"}, 40, ()),
    ("p42-geo1-pow-3", "prop42", {"sides": "geometric:c=2,r=1", "norms": "power:c=1,p=-3"},
     40, ()),
    ("p42-geo0.8-geo", "prop42", {"sides": "geometric:c=4,r=0.8", "norms": NORMS_G05}, 40, ()),
    ("p42-geomin1.5-geo", "prop42",
     {"sides": "geometric:c=1,r=1.5,rel=minorant", "norms": "geometric:c=1,r=0.9"}, 40, ()),
    ("p42-geomaj0.9-pow", "prop42",
     {"sides": "geometric:c=2,r=0.9,rel=majorant", "norms": "power:c=1,p=-3"}, 40, ()),
    ("p42-geomaj1.5-geo", "prop42",
     {"sides": "geometric:c=1,r=1.5,rel=majorant", "norms": NORMS_G05}, 40, ()),
    ("p42-explicit-sides", "prop42",
     {"sides": "explicit:1,3,7,20,50", "norms": NORMS_G05}, 40, ("sigma",)),
    ("p42-explicit-both", "prop42",
     {"sides": "explicit:1,2,3", "norms": "explicit:0.5,0.1,0.01,0.001"}, 40, ()),
    # --- prop42 with x: translation series and twist majorants ------------
    ("p42x-pow2", "prop42", {"sides": SIDES_P2, "norms": NORMS_G05, "x": "1,-2"}, 60,
     ("translation", "twist_majorant")),
    ("p42x-pow2-r3", "prop42", {"sides": "power:c=1.5,p=1.5", "norms": "power:c=1,p=-4",
                                "x": "1,0,2"}, 40, ()),
    ("p42x-pow0.5", "prop42", {"sides": "power:c=2,p=0.5", "norms": NORMS_G05, "x": "2,1"},
     40, ("translation",)),
    ("p42x-pow-neg", "prop42", {"sides": "power:c=3,p=-1", "norms": NORMS_G05, "x": "1"},
     30, ()),
    ("p42x-geo1.5", "prop42", {"sides": "geometric:c=1,r=1.5", "norms": NORMS_G05,
                               "x": "1,1"}, 30, ("translation",)),
    ("p42x-geo1", "prop42", {"sides": "geometric:c=2,r=1", "norms": NORMS_G05, "x": "1,1"},
     30, ()),
    ("p42x-geo0.9", "prop42", {"sides": "geometric:c=3,r=0.9", "norms": NORMS_G05, "x": "1"},
     30, ()),
    ("p42x-powmaj2", "prop42",
     {"sides": "power:c=1,p=2,rel=majorant", "norms": NORMS_G05, "x": "1,0"}, 30, ()),
    ("p42x-powmaj0.5", "prop42",
     {"sides": "power:c=1,p=0.5,rel=majorant", "norms": NORMS_G05, "x": "1,0"}, 30, ()),
    ("p42x-powmin0.5", "prop42",
     {"sides": "power:c=1,p=0.5,rel=minorant", "norms": NORMS_G05, "x": "1,0"}, 30, ()),
    ("p42x-geomin1.5", "prop42",
     {"sides": "geometric:c=1,r=1.5,rel=minorant", "norms": NORMS_G05, "x": "0,1"}, 30, ()),
    ("p42x-geomaj1.5", "prop42",
     {"sides": "geometric:c=1,r=1.5,rel=majorant", "norms": NORMS_G05, "x": "0,1"}, 30, ()),
    ("p42x-zero", "prop42", {"sides": SIDES_P2, "norms": NORMS_G05, "x": "0,0"}, 20,
     ("translation",)),
    ("p42x-explicit", "prop42", {"sides": "explicit:1,2,4,8", "norms": NORMS_G05, "x": "1"},
     20, ("translation", "twist_majorant")),
    ("p42x-overflow", "prop42", {"sides": "power:c=1,p=400", "norms": "power:c=1,p=-3",
                                 "x": "1,1"},
     12, ("translation", "twist_majorant", "sigma", "weighted")),
    ("p42x-norm-zero", "prop42", {"sides": SIDES_P2, "norms": "power:c=0,p=0", "x": "1,1"},
     12, ("twist_majorant",)),
    # --- converge boxes: translation and twist parts -----------------------
    ("box-geo-pow2", "converge", {"kind": "boxes", "x": "1,0", "sides": SIDES_P2,
                                  "matrices": {"family": "geometric", "matrix": "0,1;-1,0",
                                               "ratio": 0.5}}, 10, ("translation", "twist")),
    ("box-pow-pow1", "converge", {"kind": "boxes", "x": "1,1", "sides": "power:c=1,p=1",
                                  "matrices": {"family": "power", "matrix": "0,0.5;-0.5,0",
                                               "exponent": -3}}, 12, ("twist",)),
    ("box-pow-slow", "converge", {"kind": "boxes", "x": "1,1", "sides": "power:c=1,p=1",
                                  "matrices": {"family": "power", "matrix": "0,0.5;-0.5,0",
                                               "exponent": -0.5}}, 12, ()),
    ("box-zero-x", "converge", {"kind": "boxes", "x": "0,0", "sides": SIDES_P2,
                                "matrices": {"family": "geometric", "matrix": "0,1;-1,0",
                                             "ratio": 0.5}}, 6, ()),
    ("box-side-maj", "converge", {"kind": "boxes", "x": "1,0",
                                  "sides": "power:c=1,p=2,rel=majorant",
                                  "matrices": {"family": "geometric", "matrix": "0,1;-1,0",
                                               "ratio": 0.5}}, 8, ()),
    ("box-side-min", "converge", {"kind": "boxes", "x": "1,0",
                                  "sides": "power:c=1,p=2,rel=minorant",
                                  "matrices": {"family": "geometric", "matrix": "0,1;-1,0",
                                               "ratio": 0.5}}, 8, ()),
    ("box-side-explicit", "converge", {"kind": "boxes", "x": "0,1",
                                       "sides": "explicit:1,2,3,5,8",
                                       "matrices": {"family": "geometric",
                                                    "matrix": "0,1;-1,0", "ratio": 0.5}},
     8, ("translation", "twist")),
    ("box-side-zero", "converge", {"kind": "boxes", "x": "1,0", "sides": "power:c=0,p=1",
                                   "matrices": {"family": "geometric", "matrix": "0,1;-1,0",
                                                "ratio": 0.5}}, 6, ()),
    ("box-side-geo", "converge", {"kind": "boxes", "x": "1,1",
                                  "sides": "geometric:c=1,r=1.3",
                                  "matrices": {"family": "geometric",
                                               "matrix": "0,0.3;-0.3,0", "ratio": 0.6}},
     10, ()),
    ("box-side-geo1", "converge", {"kind": "boxes", "x": "2",
                                   "sides": "geometric:c=3,r=1",
                                   "matrices": {"family": "power", "matrix": "0.2",
                                                "exponent": -2}}, 10, ()),
    ("box-rank3", "converge", {"kind": "boxes", "x": "1,0,-1", "sides": "power:c=1,p=1.5",
                               "matrices": {"family": "geometric",
                                            "matrix": "0,1,0;-1,0,0.5;0,-0.5,0",
                                            "ratio": 0.4}}, 6, ()),
    # --- converge boxes on grids past one 2^15-point summation block -------
    ("box-big-r2", "converge", {"kind": "boxes", "x": "1,-1", "sides": SIDES_P2,
                                "matrices": {"family": "geometric",
                                             "matrix": "0,1.3;-0.7,0.2", "ratio": 0.6}},
     20, ("twist",)),
    ("box-big-r2-slow", "converge", {"kind": "boxes", "x": "2,1", "sides": SIDES_P2,
                                     "matrices": {"family": "power",
                                                  "matrix": "0.1,0.8;-0.6,0",
                                                  "exponent": -0.5}}, 20, ("twist",)),
    ("box-big-r3", "converge", {"kind": "boxes", "x": "1,1,-1", "sides": "power:c=1,p=1.5",
                                "matrices": {"family": "power",
                                             "matrix": "0,1,0;-1,0,0.5;0,-0.5,0",
                                             "exponent": -3}}, 14, ("twist",)),
    # --- select: greedy steps and their sup distances ----------------------
    ("sel-r2", "select", {"count": 5, "members": {"matrix": "0.3,1;-1,0.2", "ratio": 0.5},
                          "sides": "power:c=1,p=1",
                          "thresholds": {"coeff": 1, "exponent": -2}}, 10, ("sups",)),
    ("sel-r3", "select", {"count": 4, "members": {"matrix": "0,1,0;-1,0,0.5;0,-0.5,0",
                                                  "ratio": 0.7},
                          "sides": "power:c=1,p=1",
                          "thresholds": {"coeff": 0.5, "exponent": -1.5}}, 10, ("sups",)),
    # --- converge inner / product: diagnose_terms --------------------------
    ("inner-nomodel", "converge", {"kind": "inner", "values": [0.9, 0.99, 0.999]}, 20,
     ("terms",)),
    ("inner-pow-exact", "converge",
     {"kind": "inner", "values": [0.5, 0.75, 0.875], "model": "power:c=0.5,p=-2"}, 20,
     ("terms",)),
    ("inner-pow-exceeds", "converge",
     {"kind": "inner", "values": [0.5, 0.1], "model": "power:c=0.5,p=-2"}, 20, ()),
    ("inner-pow-below", "converge",
     {"kind": "inner", "values": [0.5, 0.99], "model": "power:c=0.5,p=0,rel=minorant"}, 20,
     ()),
    ("inner-pow-zero", "converge", {"kind": "inner", "values": [1, 1, 1],
                                    "model": "power:c=0,p=3"}, 20, ()),
    ("inner-pow-min", "converge", {"kind": "inner", "values": [0, 0.5, 0.6],
                                   "model": "power:c=0.25,p=-1,rel=minorant"}, 20,
     ("terms",)),
    ("inner-pow-maj", "converge", {"kind": "inner", "values": [0.9, 0.95],
                                   "model": "power:c=1,p=-0.5,rel=majorant"}, 20, ()),
    ("inner-pow-maj-conv", "converge", {"kind": "inner", "values": [0.9, 0.95],
                                        "model": "power:c=1,p=-1.5,rel=majorant"}, 20, ()),
    ("inner-geo-exact", "converge", {"kind": "inner", "values": [0.5, 0.75, 0.875, 0.9375],
                                     "model": "geometric:c=1,r=0.5"}, 20, ()),
    ("inner-geo-zero", "converge", {"kind": "inner", "values": [1, 1],
                                    "model": "geometric:c=0,r=3"}, 20, ()),
    ("inner-geo-min", "converge", {"kind": "inner", "values": [0.5, 0.4],
                                   "model": "geometric:c=0.5,r=1,rel=minorant"}, 20, ()),
    ("inner-geo-maj", "converge", {"kind": "inner", "values": [0.5, 0.4],
                                   "model": "geometric:c=1,r=1.5,rel=majorant"}, 20, ()),
    ("inner-geo-min-small", "converge", {"kind": "inner", "values": [0.5, 0.9],
                                         "model": "geometric:c=0.1,r=0.5,rel=minorant"},
     20, ()),
    ("inner-explicit", "converge", {"kind": "inner", "values": [0.5, 0.75],
                                    "model": "explicit:0.5,0.25,0.125"}, 20, ("terms",)),
    ("inner-complex", "converge", {"kind": "inner",
                                   "values": [{"re": 0.6, "im": 0.8}, {"re": 0.8, "im": 0.6}],
                                   "model": "power:c=2,p=-2,rel=majorant"}, 20, ()),
    ("inner-angles-pow", "converge", {"kind": "inner", "angles": "power:c=-1,p=-2"}, 100,
     ("terms",)),
    ("inner-angles-explicit", "converge", {"kind": "inner", "angles": "explicit:0.1,-0.2,0.3"},
     100, ("terms",)),
    ("prod-angles-pow", "converge", {"kind": "product", "angles": "power:c=1,p=-2"}, 100,
     ("terms",)),
    ("prod-angles-geo", "converge", {"kind": "product", "angles": "geometric:c=2,r=0.7"},
     100, ("terms",)),
    ("prod-angles-slow", "converge", {"kind": "product", "angles": "power:c=0.5,p=-0.7"},
     100, ()),
    ("prod-angles-model", "converge", {"kind": "product", "angles": "power:c=1,p=-1",
                                       "model": "power:c=1,p=-1,rel=minorant"}, 50, ()),
    ("prod-values-geo", "converge", {"kind": "product",
                                     "values": [{"re": 0.6, "im": 0.8}, 1, -1],
                                     "model": "geometric:c=2,r=0.9,rel=majorant"}, 20,
     ("terms",)),
    # --- dirichlet: inverse windows and deviation --------------------------
    ("dir-pow2", "dirichlet", {"windows": SIDES_P2, "angles": "power:c=1,p=-4"}, 80,
     ("deviation", "inverse")),
    ("dir-pow0.5", "dirichlet", {"windows": "power:c=1,p=0.5", "angles": "power:c=-2,p=-4"},
     80, ("deviation",)),
    ("dir-subnormal-angle", "dirichlet",
     {"windows": SIDES_P2, "angles": "geometric:c=5e-324,r=0.999"}, 10_000, ()),
    ("dir-pow-slow", "dirichlet", {"windows": "power:c=1,p=1", "angles": "power:c=1,p=-0.5"},
     60, ()),
    ("dir-geo1.5", "dirichlet", {"windows": "geometric:c=1,r=1.5",
                                 "angles": "geometric:c=1,r=0.5"}, 30, ()),
    ("dir-geo1", "dirichlet", {"windows": "geometric:c=2,r=1", "angles": "power:c=1,p=-3"},
     30, ("inverse",)),
    ("dir-win-explicit", "dirichlet", {"windows": "explicit:1,2,3,4",
                                       "angles": "power:c=1,p=-3"}, 30, ()),
    ("dir-ang-explicit", "dirichlet", {"windows": SIDES_P2, "angles": "explicit:0.5,-0.25,pi"},
     30, ("deviation",)),
    ("dir-win-maj", "dirichlet", {"windows": "power:c=1,p=2,rel=majorant",
                                  "angles": "power:c=1,p=-4"}, 30, ()),
    ("dir-win-maj-slow", "dirichlet", {"windows": "power:c=1,p=0.5,rel=majorant",
                                       "angles": "power:c=1,p=-4"}, 30, ()),
    ("dir-win-min", "dirichlet", {"windows": "power:c=1,p=2,rel=minorant",
                                  "angles": "power:c=1,p=-4"}, 30, ()),
    ("dir-geo-win-pow-angle", "dirichlet", {"windows": "geometric:c=1,r=1.2",
                                            "angles": "power:c=1,p=-3"}, 30, ()),
    # --- action: deficit series per element --------------------------------
    ("act-regular", "action", {"elements": ["1,0", "0,0", "2,-1"],
                               "source": {"regular_trace": {"group": "Z^2"}}}, 40,
     ("deficit:1,0", "deficit:0,0")),
    ("act-identity", "action", {"elements": ["0,0"],
                                "source": {"regular_trace": {"group": "Z^2"}}}, 40,
     ("deficit:0,0",)),
    ("act-pauli", "action", {"elements": ["0,0", "1,1", "0,1"],
                             "source": {"rep_trace": {"name": "pauli"}}}, 30,
     ("deficit:1,1",)),
    ("act-values-model", "action", {
        "elements": ["1", "0"], "model": "geometric:c=1,r=0.5",
        "source": {"values": {"group": "Z2", "kind": "vector", "table": [
            {"g": "1", "amplitudes": [0.5, 0.75, 0.875, 0.9375]},
            {"g": "0", "amplitudes": [1, 1, 1, 1]}]}}}, 40, ("deficit:1", "deficit:0")),
    ("act-values-nomodel", "action", {
        "elements": ["1"],
        "source": {"values": {"group": "Z2", "kind": "vector", "table": [
            {"g": "1", "amplitudes": [0.5, {"re": 0, "im": 0.75}]}]}}}, 40, ()),
    ("act-values-drift", "action", {
        "elements": ["1"], "model": "power:c=0.5,p=0,rel=minorant",
        "source": {"values": {"group": "Z2", "kind": "vector", "table": [
            {"g": "1", "amplitudes": [0.5, 0.25, 0]}]}}}, 40, ("deficit:1",)),
    ("act-values-trace", "action", {
        "elements": ["1", "2"], "model": "power:c=0.5,p=0,rel=minorant",
        "source": {"values": {"group": "Z3", "kind": "trace", "table": [
            {"g": "1", "amplitudes": [0.5, 0.25, 0]},
            {"g": "2", "amplitudes": [0.5, 0.5, 0.5]}]}}}, 40, ()),
    # --- CSV edge rows: non-finite terms and sums, signed zeros, short bounds
    ("csv-nan-norms", "prop42", {"sides": SIDES_P2, "norms": "power:c=nan,p=-2"}, 5,
     ("norms", "weighted")),
    ("csv-overflowed-sum", "prop42", {"sides": SIDES_P2, "norms": "power:c=1e308,p=0"}, 5,
     ("norms", "weighted", "sigma")),
    ("csv-negative-zero", "prop42", {"sides": SIDES_P2, "norms": "explicit:-0.0,0.5,0.25"},
     5, ("norms", "weighted")),
    ("csv-bounds-past-prefix", "converge",
     {"kind": "inner", "values": [0.5, 0.75, 0.875, 0.9], "model": "explicit:0.5,0.25"},
     10, ("terms",)),
    ("csv-nan-value", "converge", {"kind": "inner", "values": ["nan", 0.5, 1]}, 10,
     ("terms",)),
    ("csv-nan-amplitude", "action", {
        "elements": ["1"],
        "source": {"values": {"group": "Z2", "kind": "vector", "table": [
            {"g": "1", "amplitudes": ["nan", 0.5, {"re": 0, "im": -0.0}, 1]}]}}}, 10,
     ("deficit:1",)),
    # --- CSV cells: explicit norms and bounds print as they are given, so
    # these reach the subnormals, the .17g ties (half-even), both notation
    # switches with their float neighbours, two- and three-digit exponents
    # and floats whose 17-digit rounding carries into the next decade.
    ("csv-subnormal-ties", "prop42",
     {"sides": SIDES_P2, "norms": "explicit:5e-324,2.98023223876953125e-08,"
                                  "660824967240747.375,2.2250738585072014e-308"},
     10, ("norms",)),
    ("csv-notation-switches", "prop42",
     {"sides": SIDES_P2, "norms": "explicit:9.999999999999999e-05,0.0001,"
                                  "0.00010000000000000002,9999999999999998,1e16,"
                                  "1.0000000000000002e16,9.999999999999998e16,1e17,"
                                  "1.0000000000000002e17"},
     10, ("norms",)),
    ("csv-exponent-widths", "prop42",
     {"sides": SIDES_P2, "norms": "explicit:1e-100,1.2345678901234567e-99,9.87e99,"
                                  "1e100,1.7976931348623157e308"},
     10, ("norms",)),
    ("csv-decade-carry", "prop42",
     {"sides": SIDES_P2, "norms": "explicit:1e-14,1e-305,1e98,1e220"}, 10, ("norms",)),
    ("csv-bound-cells", "converge",
     {"kind": "inner", "values": [0.5, 0.75, 0.875, 0.9, 0.95, 0.99, 0.999, 1, 0.25, 0.125],
      "model": "explicit:5e-324,2.98023223876953125e-08,9.999999999999999e-05,1e16,"
               "9.999999999999998e16,1e-100,1e100,1.7976931348623157e308,1e-14"},
     10, ("terms",)),
    ("csv-row-indices", "converge", {"kind": "product", "angles": "power:c=-1.3,p=-2"}, 101,
     ("terms",)),
    # --- box defects on both sides of 2^53 points per box -------------------
    ("p42x-cross-2^53", "prop42", {"sides": "power:c=1,p=3", "norms": NORMS_G05,
                                   "x": "3,-1"}, 500, ("translation", "twist_majorant")),
    ("p42x-big-r3", "prop42", {"sides": "power:c=3,p=2.5", "norms": NORMS_G05,
                               "x": "2,-1,1"}, 400, ("translation",)),
    # Recorded with the Python-int defects, before the double-double ones:
    # sides past 2^53 themselves (m + 1 not a float), K = 3 and K = 4 across
    # s^K = 2^53, and coordinates that exceed the side for a stretch past it.
    ("p42x-k2-sides-past-2^53", "prop42", {"sides": "power:c=1,p=6", "norms": NORMS_G05,
                                           "x": "2,-3"}, 600, ("translation",)),
    ("p42x-k3-wide-x", "prop42", {"sides": "power:c=2,p=2.5", "norms": NORMS_G05,
                                  "x": "7,-11,13"}, 300, ("translation",)),
    ("p42x-k4-cross", "prop42", {"sides": "power:c=1,p=2", "norms": NORMS_G05,
                                 "x": "1,0,1,-1,1"}, 600, ("translation",)),
    ("p42x-k2-huge-x", "prop42", {"sides": "power:c=1,p=4", "norms": NORMS_G05,
                                  "x": "123456789,-987654321"}, 400, ("translation",)),
    # An infinite side exponent: the weighted envelope's poly-geometric tail
    # used to walk forever, since (1 + 1/i)^inf * r never drops below 1.
    ("p42-inf-exponent", "prop42", {"sides": "power:c=1,p=inf", "norms": NORMS_G05}, 10,
     ("weighted",)),
    ("p42x-inf-exponent", "prop42", {"sides": "power:c=1,p=inf", "norms": NORMS_G05,
                                     "x": "1,1"}, 10, ("translation",)),
    # --- dense commands (n_max is unused) ------------------------------------
    # Windows of 1, 8, 121 and 196 points: the last two sit below and above
    # n = 128, where numpy began to elide the 256 KiB temporary w * c of the
    # old n x n residual, and the 196-point report changes if the relation
    # residual multiplies s first at that size (reps.ELISION_BYTES).
    ("ccr-window-0", "ccr", {"sigma": {"matrix": "0.7,-0.4"}, "window": {"side": 0}}, 10, ()),
    ("ccr-window-1", "ccr", {"sigma": {"matrix": "0.3,1.1,-0.5;0.2,-0.9,0.6"},
                             "window": {"side": 1}, "samples": {"count": 50, "bound": 3}},
     10, ()),
    ("ccr-window-10", "ccr", {"sigma": {"matrix": "0.45,-1.3;0.8,0.25"},
                              "window": {"side": 10}, "samples": {"count": 60, "bound": 6}},
     10, ()),
    ("ccr-window-13", "ccr", {"sigma": {"matrix": "1.05,-0.6"}, "window": {"side": 13},
                              "samples": {"count": 60, "bound": 7}}, 10, ()),
    # 4096 points, at DIMENSION_CAP, with the default 200 samples; recorded
    # from the n x n residual (about a minute on a 2-vCPU VM).
    ("ccr-window-63", "ccr", {"sigma": {"matrix": "0.1,0;0,0.1"}, "window": {"side": 63}},
     10, ()),
    ("ccr-table-b-larger", "ccr", {"sigma": _bilinear_table(3, 1, 2, [[1, 2]])}, 10, ()),
    ("ccr-table-sampled", "ccr", {"sigma": _bilinear_table(9, 2, 2, [[1, 4], [2, 7]]),
                                  "samples": {"count": 30, "bound": 4}}, 10, ()),
    ("ccr-pauli", "ccr", {"sigma": {"name": "pauli"}}, 10, ()),
    ("fell-pauli-coboundary", "fell", {
        "u": {"coboundary": {"epsilon": 0.9, "group": "Z2xZ2"}}, "rep": {"name": "pauli"}},
     10, ()),
    ("fell-regular-perturb", "fell", {
        "u": {"coboundary": {"epsilon": 0.35, "group": "Z6"}},
        "rep": {"regular": {"cocycle": {"perturb": {"base": {"trivial": "Z6"},
                                                    "epsilon": 1.1}},
                            "group": "Z6"}}}, 10, ()),
    ("fell-regular-product", "fell", {
        "u": {"perturb": {"base": {"trivial": "Z2xZ3"}, "epsilon": 0.6}},
        "rep": {"regular": {"cocycle": {"product": [
            {"coboundary": {"epsilon": 0.2, "group": "Z2xZ3"}},
            {"coboundary": {"epsilon": 1.4, "group": "Z2xZ3"}}]}, "group": "Z2xZ3"}}},
     10, ()),
    ("fell-regular-coboundary", "fell", {
        "u": {"product": [{"coboundary": {"epsilon": 0.5, "group": "Z5"}}, {"trivial": "Z5"}]},
        "rep": {"regular": {"cocycle": {"coboundary": {"epsilon": 1.3, "group": "Z5"}},
                            "group": "Z5"}}}, 10, ()),
    ("tensor-three", "tensor", {"factors": [
        {"regular": {"cocycle": {"coboundary": {"epsilon": 0.8, "group": "Z2xZ2"}},
                     "group": "Z2xZ2"}},
        {"name": "pauli"}, {"name": "pauli"}]}, 10, ()),
    ("check-cocycle-table", "check-cocycle", {
        "cocycle": {"product": [{"name": "pauli"},
                                {"coboundary": {"epsilon": 0.3, "group": "Z2xZ2"}}]},
        "samples": {"count": 50, "bound": 3}}, 10, ()),
    ("obstruction-matrix", "obstruction", {"u": {"matrix": "0,0.9;-0.9,0"}}, 10, ()),
    ("obstruction-list-v", "obstruction", {
        "u": [{"name": "pauli"}, {"perturb": {"base": {"name": "pauli"}, "epsilon": 0.4}}],
        "v": {"name": "pauli"}}, 10, ()),
]


ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _twist(matrices, matrix_model, sides, side_model, n_max=6):
    r = twisted_rep_series(matrices, matrix_model, sides, side_model, (1, 0), n_max=n_max)
    return r.x, r.sides, r.translation_terms, r.twist_terms, r.translation, r.twist


def _dirichlet(*args, **kwargs):
    r = dirichlet_condition(*args, **kwargs)
    return (tuple(map(int, r.windows.tolist())), tuple(r.angles.tolist()),
            tuple(r.deviation_terms.tolist()), r.inverse_window, r.deviation)


def _action(verdict):
    deficits = [None if d is None else d.tolist() for d in verdict.deficits]
    return verdict.status, verdict.reports, verdict.note, deficits


LATTICE2 = IntegerLattice(2)
BOX_VECTORS = {i: box_vector(FolnerBox(2, i)) for i in range(1, 7)}


def _regular_scenario(cocycles):
    return scenario_from_regular_vectors(LATTICE2, cocycles, BOX_VECTORS.__getitem__)


def _rep_scenario():
    return scenario_from_rep_vectors(
        lambda i: pauli_rep(), lambda i: np.array([math.cos(1.0 / i), math.sin(1.0 / i)]))


# Prefix checks that the CLI never reaches, since it derives the realized
# sequences from the declared models: (name, thunk whose repr is hashed).
LIBRARY_CASES = [
    ("lib-translation-nomodel", lambda: translation_series([1, 2, 3], None, (1, 0))),
    ("lib-translation-below", lambda: translation_series(
        [1, 2, 3], PowerModel(1.0, 2.0), (1, 0))),
    ("lib-translation-above", lambda: translation_series(
        [1, 9, 30], PowerModel(1.0, 1.0, "majorant"), (1, 0))),
    ("lib-translation-geo-min", lambda: translation_series(
        [2, 3, 4], GeometricModel(1.0, 1.2, "minorant"), (0, 2))),
    ("lib-twist-nomodels", lambda: _twist(
        lambda i: ROTATION * 0.5 ** i, None, lambda i: i * i, None)),
    ("lib-twist-side-mismatch", lambda: _twist(
        lambda i: ROTATION * 0.5 ** i, GeometricModel(1.0, 0.5),
        lambda i: i, PowerModel(1.0, 2.0))),
    ("lib-twist-norm-above", lambda: _twist(
        lambda i: ROTATION * 0.5 ** i, GeometricModel(1.0, 0.25),
        lambda i: i * i, PowerModel(1.0, 2.0))),
    ("lib-twist-norm-below", lambda: _twist(
        lambda i: ROTATION * 0.5 ** i, GeometricModel(1.0, 0.75, "minorant"),
        lambda i: i * i, PowerModel(1.0, 2.0))),
    ("lib-twist-norm-minorant", lambda: _twist(
        lambda i: ROTATION * 0.5 ** i, GeometricModel(1.0, 0.5, "minorant"),
        lambda i: i * i, PowerModel(1.0, 2.0))),
    ("lib-twist-norm-majorant", lambda: _twist(
        lambda i: ROTATION * 0.5 ** i, GeometricModel(1.0, 0.75, "majorant"),
        lambda i: i * i, PowerModel(1.0, 2.0))),
    ("lib-twist-norm-explicit", lambda: _twist(
        lambda i: ROTATION * 0.5 ** i, ExplicitModel((0.5, 0.25, 0.125)),
        lambda i: i * i, PowerModel(1.0, 2.0), n_max=3)),
    ("lib-dirichlet-nomodels", lambda: _dirichlet(
        lambda j: j, None, lambda j: 1.0 / j ** 3, None, n_max=20)),
    ("lib-dirichlet-window-mismatch", lambda: _dirichlet(
        lambda j: j, PowerModel(1.0, 2.0), lambda j: 1.0 / j ** 3,
        PowerModel(1.0, -3.0), n_max=20)),
    ("lib-dirichlet-angle-above", lambda: _dirichlet(
        lambda j: j * j, PowerModel(1.0, 2.0), lambda j: 2.0 / j ** 3,
        PowerModel(1.0, -3.0), n_max=20)),
    ("lib-dirichlet-angle-minorant", lambda: _dirichlet(
        lambda j: j * j, PowerModel(1.0, 2.0), lambda j: -1.0 / j ** 3,
        PowerModel(1.0, -3.0, "minorant"), n_max=20)),
    # Action scenarios built from vectors, which the CLI has no source for.
    ("lib-action-regular-ext", lambda: extension_condition(
        _regular_scenario(geometric_matrix_sequence(ROTATION, 0.5)), (1, 0),
        model=PowerModel(0.5, -1.0, "minorant"), n_max=6)),
    ("lib-action-regular-capped", lambda: _action(inner_outer_verdict(
        _regular_scenario(from_list([MatrixCocycle(ROTATION * 0.5 ** i)
                                     for i in (1, 2, 3)])),
        [(0, 0), (1, 0), (1, -1)], n_max=6))),
    ("lib-action-rep-ext", lambda: extension_condition(
        _rep_scenario(), (0, 1), model=PowerModel(2.0, -2.0, "majorant"), n_max=8)),
    ("lib-action-rep-verdict", lambda: _action(inner_outer_verdict(
        _rep_scenario(), [(1, 1), (0, 0), (0, 1)],
        models={(0, 1): PowerModel(2.0, -2.0, "majorant")}, n_max=8))),
]


# Scenarios that fail: (name, command, params, horizons).  The digest covers
# the exit code and the message, which for select names the best near miss.
FAILURES = [
    ("sel-fail-r2", "select", {"count": 4, "members": {"matrix": "0.3,1;-1,0.2",
                                                       "ratio": 0.8},
                               "sides": "power:c=1,p=1"}, {"n_max": 10, "scan": 8}),
    ("sel-fail-r3", "select", {"count": 4, "members": {"matrix": "0,1,0;-1,0,0.5;0,-0.5,0",
                                                       "ratio": 0.8},
                               "sides": "power:c=1,p=1"}, {"n_max": 10, "scan": 8}),
    ("act-fail-missing-row", "action", {"elements": ["0"], "source": {"values": {
        "group": "Z2", "kind": "vector",
        "table": [{"g": "1", "amplitudes": [0.5, 0.75]}]}}}, {"n_max": 10}),
    ("act-fail-ragged", "action", {"elements": ["1"], "source": {"values": {
        "group": "Z2", "kind": "vector",
        "table": [{"g": "1", "amplitudes": [0.5, 0.75]},
                  {"g": "0", "amplitudes": [1]}]}}}, {"n_max": 10}),
    ("act-fail-kind", "action", {"elements": ["1"], "source": {"values": {
        "group": "Z2", "kind": "state",
        "table": [{"g": "1", "amplitudes": [0.5]}]}}}, {"n_max": 10}),
    ("act-fail-modulus", "action", {"elements": ["1"], "source": {"values": {
        "group": "Z2", "kind": "vector",
        "table": [{"g": "1", "amplitudes": [2, 0.5]}]}}}, {"n_max": 10}),
    ("act-fail-rank", "action", {"elements": ["1"],
                                 "source": {"regular_trace": {"group": "Z^2"}}},
     {"n_max": 10}),
    # Model errors name the field and the index; these two printed Python's
    # bare "(34, 'Numerical result out of range')" and "math domain error".
    ("p42-fail-tail-overflow", "prop42", {"sides": "power:c=1,p=1e300",
                                          "norms": "geometric:c=1,r=0.999"}, {"n_max": 10}),
    ("dir-fail-infinite-angle", "dirichlet", {"windows": "geometric:c=1,r=0.5",
                                              "angles": "power:c=1,p=inf"}, {"n_max": 10}),
]


def _report(command, params, n_max, series=None):
    doc = {"command": command, "params": copy.deepcopy(params), "schema": 1,
           "horizons": {"n_max": n_max}}
    if series is not None:
        doc["output"] = {"format": "csv", "series": series}
    return run_scenario(doc, command)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _renderings():
    for name, command, params, n_max, series in CASES:
        yield name, command, params, n_max, None
        for s in series:
            yield f"{name}:{s}", command, params, n_max, s


RENDERINGS = list(_renderings())

DIGESTS = {
    "act-identity":
        "571a62180bd3a472bdfe9f3378f0e7b891190403f3ebf95b18a7db8a05d5adcd",
    "act-identity:deficit:0,0":
        "7ff21b165915f1b74fe9fea0f5687b5132511f11f0a39f6600a2612da26677d0",
    "act-pauli":
        "26d7ca813b90de1248179b0114089bd4564c96ffce734459ce275348cf6bf6d0",
    "act-pauli:deficit:1,1":
        "1b0047276c067b1036657e59e9a2bae4b699fc01eb779ce94a430666b34f557d",
    "act-regular":
        "708837ef57f65e1a718315928e958ead0f44a8978559349fab1d01414f23a7fc",
    "act-regular:deficit:0,0":
        "5e5045477427a2a76fb3260aac8fe38c277fe17bbd10cd4f9c0de00992b541f3",
    "act-regular:deficit:1,0":
        "dc2b8a4dddc0fdc8f9d674e12e06015f5fc55ad06ae90940c2b8d0510ea26c7c",
    "act-values-drift":
        "ff7e89f337d6edfa04839375618d7c182dad206f09d737901849472161a09aeb",
    "act-values-drift:deficit:1":
        "90f68c30da9b8f2c2df825863e53bd7f59d1b2b2cce4ee1af2c216a30e7cf2df",
    "act-values-model":
        "d0071bcab10c0c2d221419a150bd857bda35a72a910f16590a21af2db0877450",
    "act-values-model:deficit:0":
        "c2201a0849353cc1fbd8bd9d8f8e078525823c3ae7711ea2e6662fae09559bbb",
    "act-values-model:deficit:1":
        "b737574a18c9932ed8c26a594f0ec61667273fdbff83d3df879504b460d7af38",
    "act-values-nomodel":
        "cafeb23b1bd5dc202b325e82e70a3fa35ab8369907516e92c9226e9131675071",
    "act-values-trace":
        "dd1adf58e36145d6959518c46063f70e8abcc8fa6c7298f77dd5e48ee1ff6b6d",
    "box-big-r2":
        "58cd492c1527d76fc94c35a47806a7c2691e7239c7652890c121f6b65c0dba33",
    "box-big-r2-slow":
        "c5414e2075d137dacdde9b109ae587f94af87b57a088ce33668e0d6d1b0b0a01",
    "box-big-r2-slow:twist":
        "ad8b4705bc2bc26c4df0dd996cccd71ca6c835fc6b6d85aa657fd7d2b1d2611e",
    "box-big-r2:twist":
        "1aaf905593b5bde879a8bae2290bbd304a2a815951dd65cef07f88d9b0c26a00",
    "box-big-r3":
        "78793e027aaf513c13c7e306fdae3800fdc709bfd7b817165d5d359b2773254a",
    "box-big-r3:twist":
        "49764b775ffae4ddde50d3a4aa1f9b84c55470eea77eca3ca72df861e93cc526",
    "box-geo-pow2":
        "0bcc9d80bd719a3318548a5aebfc82b434ef1653e503c375bdfac3f5d981b23c",
    "box-geo-pow2:translation":
        "08fef0c45055d7a12561a179ca13eba8cdec35d49e1de0454fcd98019a259a92",
    "box-geo-pow2:twist":
        "44a007c9b582b1c8415989b0e1ea09cbae37bc36b19219c44eba7c7db0a798d4",
    "box-pow-pow1":
        "f99b0fea87627ea84f031401162031f0e50f592c3df726603c129f119955c63f",
    "box-pow-pow1:twist":
        "ae640b641544c50f74f4b9de35c8190c9b56fd42f8a0dee9388f94713972c819",
    "box-pow-slow":
        "08a30124935116a9c2dce1bdb7ead80182091643a77666e0ebc10dd913379ea9",
    "box-rank3":
        "c3374eeea2ed59542beaf05c9fd2b4f06eb313f90910c7cb976c6cf33a210198",
    "box-side-explicit":
        "50f4161ad76112eb60565d51a24da0b4a84b42a7ff6590caa60ffa9d9b5feb7e",
    "box-side-explicit:translation":
        "30e45de2170e3644f4b6899b5aabad102dfbd07d9da296855e1793e7ed6e4c0a",
    "box-side-explicit:twist":
        "b10847b5edda3b1f3539cbaafdfb08b0a09488d2c0d1effb0734abbffb9817bd",
    "box-side-geo":
        "86a36025304c9ddebcf4abc12c3d8ab93798d7197ec6688f42fcbb7826c70e5e",
    "box-side-geo1":
        "44b7a5de8de641a4ba91ece704ee475e9f8869f03c9cc3764a8d20971e22beb6",
    "box-side-maj":
        "7cf2bda03a6e596a42b0a95b810e3429d12a3443f0d5c5169e794935d0bf1dff",
    "box-side-min":
        "c19b351bdb46116bb2b260ec151d68c7ffe6ee10d0cdad48b0e43eb985af14b1",
    "box-side-zero":
        "91485cbfbe8733a512d2320a13f64433d0f0b545a1fe52124b14aaf634b5b564",
    "box-zero-x":
        "477ae4407f439a3bff61f3867d23f127b28ba7bc99cf8f191a8c1d5cac671ec5",
    "dir-ang-explicit":
        "b5991b77bc1fa52cefdcaa6e0624bd410dc040315587dfd470dc72a6d30498a8",
    "dir-ang-explicit:deviation":
        "7aea8145e6e315d5b707af54872b79651484f2f28db47f0011c2e69251bedcde",
    "dir-geo-win-pow-angle":
        "427a03516f17fd7634045e6d7ce35fef3798751b9bf89e1eda3532803777cb8e",
    "dir-geo1":
        "4bc76332406ee46b424874f14f1f432cc0b8650e0d37ef5c398def871b79bbcd",
    "dir-geo1.5":
        "fd46e6ec43ab716095ae536d75cc28d6917595684b39285ad7dd457a6d2e7ca5",
    "dir-geo1:inverse":
        "11305cdac7ea342c51d6346b27bc81667c00b20aaa7b2aa9bc7d0bfd748acc03",
    "dir-pow-slow":
        "745ce34f68471a2a7f45e3b2b9fb8c4ef3ba52a9f9b064d09364ed1e276143fb",
    "dir-pow0.5":
        "758a73e7ab25e3a8bab990e12f71752b17c071fdeb84f19ff4cec384297a8a5d",
    "dir-pow0.5:deviation":
        "fb8304946240c79cacd446b151533d4cca9bf78c34322c583c57cd150e22c381",
    "dir-pow2":
        "b50cdd8642a12544dd7b0176aa251b685c38185f89f0f6fb55193187a0f28325",
    "dir-pow2:deviation":
        "ffbdcec07c30263eeaecbce7c75adfac01d0749f85daca100e2b720c8d5e97c1",
    "dir-pow2:inverse":
        "07de4a84654f81aac58ce23bb4c087855e76749adc621f5ebf1153b9daaf36fe",
    "dir-win-explicit":
        "3271624d1a8987ee95ac83fd35214e7a7a41810d0f161f16607f6f689b180b8a",
    "dir-win-maj":
        "86010b71489d4d2d79d054aff717493923de20b61ad3ced24b8f3c82883fdc56",
    "dir-win-maj-slow":
        "33072b3bebd8b14a192a06262cd51e6c46fdef670500d6c814a8a52e0ba7a6dc",
    "dir-win-min":
        "6871e326ff24bff21c921bff74d127edd270fc3b7a93288c08bbac14170c72a8",
    "inner-angles-explicit":
        "5050a1453f104834feb309f534d381a82a068d17f274d1daf07be8294380535d",
    "inner-angles-explicit:terms":
        "1c290cd607bdc34c6edc984831dce86820fec1163fde78319794d6ab4f9f89c4",
    "inner-angles-pow":
        "4f28d3b2046b8cce650610bb7d1622eec2ae96ea3e761aa39725493483067d45",
    "inner-angles-pow:terms":
        "9964107b50e94128ff750e82e462e2160886e5b87ad5dbe01ef0ad720f0a8700",
    "inner-complex":
        "3523620b3fbe702c2b14ae628048b774cbd0c76c8d7df84860255f8768cff29c",
    "inner-explicit":
        "e69525cc44a378f2208c64435cea25e5149de26c19e8f04a6538ec3abafab36d",
    "inner-explicit:terms":
        "a75fcea97ec1469227c0d2771e3021a71e43bc3b371c27b941d2092931d73fd1",
    "inner-geo-exact":
        "4b305c8b46cb61b20ae4120c8a8a3351fb82a0d983a163cc987bfa846eddb307",
    "inner-geo-maj":
        "3c100b95f69a915646acac2278f6d35c3edaeb18a63f311512a5678c2b0d1bb8",
    "inner-geo-min":
        "d8b523864add3d8b20f869cceba7a7f2b92806d893cc1b1cfb66b023a7868e00",
    "inner-geo-min-small":
        "f0f94a9c8dca5491bed153bda7d0b631be373a83db929952f9067ab61d66fad5",
    "inner-geo-zero":
        "2399ae8a42c7fbf38fcd42d826ec6267fb74301c0759a64e35139f22cf25e4ba",
    "inner-nomodel":
        "35a7aabab836642127d1eacf94dbf195932dc16c05930d7d11b4c2d809ca3418",
    "inner-nomodel:terms":
        "9a62a03a2b26b821fc28124524c959a4c7362d7414db4ca7637e89ed220c06ba",
    "inner-pow-below":
        "3f30f4389ee4a785719fecd461b08c5b31b7b85ec1eed65f07eb7d37971775ea",
    "inner-pow-exact":
        "43472f086c23b329e76c0533ddf2be181665dd1adc75a3e262aff9d10cbeeedf",
    "inner-pow-exact:terms":
        "d9b0e210e862056c664f3df405c2ab5641185c222107247b2cb49c0e14583b7e",
    "inner-pow-exceeds":
        "36ec02234d5138990a9accbbd9fd60128020bef5d702bc72430f18b19e8bf3f6",
    "inner-pow-maj":
        "001c24549d8560111eb971429de4fd30b3fb499930c185611e66df8fc9a2b020",
    "inner-pow-maj-conv":
        "b1ba5bfd863cbe6d0425354dad096525610f4218042b5272480b19c400cd13f4",
    "inner-pow-min":
        "0b31d649888f26bee12da60ada6242f8f32ebc84c91b794c874763a0d382f3fe",
    "inner-pow-min:terms":
        "d10f966518ccece54317ca9ab478b3d97f41d87760a6939c483222f3f9281be5",
    "inner-pow-zero":
        "1d449d773580d95eb1beb436150b975853dca05188b9ee6ab0cdb984ea057e5c",
    "lib-dirichlet-angle-above":
        "ab00cc67e6f859f325d0e90ffc88147f33247472a77d0805c3824ed4fa9bf919",
    "lib-dirichlet-angle-minorant":
        "f4999f2684154b2069639e40e620eefd9184fea5f40aba1a4971983515ab49aa",
    "lib-dirichlet-nomodels":
        "c7305b9a7b95493708e46641aec73dde74394bd106984ac3b612cd215f63a52c",
    "lib-dirichlet-window-mismatch":
        "297867630c3d0b1b928676840bbf3f097acfa63955ff0f15589fd65988d4ce76",
    "lib-translation-above":
        "c8f7016d377474fde8e7d60f7a50f6adf9d408b43e50e60588406f8a756c7492",
    "lib-translation-below":
        "a0760d9136104b1fb2fe425b1e733bc08c66647a10bdd91f6531f64bc91f4f10",
    "lib-translation-geo-min":
        "c26c636a888ea8702f7381b461ab5aabcde99e05b76b43a4096ae96031da1daa",
    "lib-translation-nomodel":
        "184dcaf8673b219474b10a798ea29bdfe09dde6d61e68023ae0b0b4cebf549bf",
    "lib-twist-nomodels":
        "2cd1d51c5463ba3072a7f484b1d366a3263b9c55fedafd09462fe70c2fd963ed",
    "lib-twist-norm-above":
        "b33713d07ad679d97e56cb149acff70f49590e807c0c6e31701caae4f9fb2f9a",
    "lib-twist-norm-below":
        "0a46e596d2e261e58e630c2adc8eb8f56739beff35c53999ca21e3a98a52b487",
    "lib-twist-norm-explicit":
        "daade26027416bf3e8334ebbcda5b3a078d78be1f6b78ba07445bfb2751c9121",
    "lib-twist-norm-majorant":
        "2f9b70ceb9c9337073ab43bdbd2ebcc6ac15f62da103a101a2494248f92c0f91",
    "lib-twist-norm-minorant":
        "8d2c1f15358286bf93f0f8ec9155a5269d9f23b37492ee70b730cf4d9a6e5d3e",
    "lib-twist-side-mismatch":
        "04b6ee72dee7a0b7ec87a1de44cb437beb14e16ae123c7289fbca76b526bcfe3",
    "p42-explicit-both":
        "3cb85c2fa98df908ae90c1f66526c3d03884dd4d479ab4368165658286b73ff5",
    "p42-explicit-sides":
        "624dca18a1009a483463c99f393e1cc0a4fc6115749bb2ec67814d60061b4e54",
    "p42-explicit-sides:sigma":
        "4624666bc17f0b1d0f75e93a8e66896bcc7c4a9f7d5799fa263e6b826bf64c39",
    "p42-geo0.8-geo":
        "3d3586602da8383a01e049d3bf2f3fa52d6866b6401e945441cab2bc6dcbaf1a",
    "p42-geo1-pow-3":
        "40e18b95d021c46adb9a2361e039a1712d07d8ba9bd5b24cda6a60a221c5ab1a",
    "p42-geo1.5-geo":
        "63777a98690a5e121d6fa5000206a14261039c2ec52afcb45de2c5d12caf5a87",
    "p42-geo1.5-geo:sigma":
        "015611b7ea11da122627b281bab28f4f81e38338594964ee4158c2b500f32f7f",
    "p42-geo1.5-geo:weighted":
        "1787b43a940436f1a00ec9084d6fb6aaf80e9c220d903afde5ae461e5a3ce620",
    "p42-geo1.5-pow-3":
        "51086263f6c78d6f8c9a5d7374c85bf525842b26afbda0beb8f1d49a9d8d6231",
    "p42-geo3-geo0.5":
        "1c221af8a1a61239d934719a3d2943cc5006bdc45cc98afb88c7d3d8155787b6",
    "p42-geomaj0.9-pow":
        "59fd64aa74bde47f33286eb841890e82042f5e7782006fe47bce3d18e60a5ab6",
    "p42-geomaj1.5-geo":
        "10230fa3bf50d725493d3a1673611b08d1cca9bcefbf99a268c48863dd38ba78",
    "p42-geomin1.5-geo":
        "4f3de3f18bb01949d3e0b9062555caeeeeff2bb5f9e143491784d7029fcae234",
    "p42-pow-neg-geo":
        "0aa604fee600eb3e538ef9673b03f9f763e483e4649d8c9daf4e588eca777c91",
    "p42-pow0-pow-3":
        "1b7a54aec48afacfe7d2c3e0ef215916eedb21ccad5d9416d189c0322a1df890",
    "p42-pow0.5-pow-3":
        "b5c7856b5088c441a6a1172e7a44baa2ac08d962aa5982369c498a2b4d6b21b8",
    "p42-pow1-pow-2.2":
        "19beeac7be94a35b5ee6095bc2761e3d4962484c71bbb5a90a27e03d1b56ff95",
    "p42-pow2-explicit":
        "43fa158720bc2261b5604cbeff99aa643cfb76d7b11fd51a92959801434e87ec",
    "p42-pow2-explicit:norms":
        "75d767766aba248f52339a51bb666f396fa3d46cf380412ece5778627182bae8",
    "p42-pow2-geo":
        "958b620afeeefa7279dc256f688583cae6851fea0e97e9fa01f2cf951ea75784",
    "p42-pow2-geo-maj1.5":
        "293676a91c1d8d29f82ff07bf96e2ea8149193e490c50a7e91ea427d6270ba17",
    "p42-pow2-geo-min0.5":
        "e9eb0bfeb05c1c13857e14545e3c72379e1e882adb95b797f55a76d4be7d5b21",
    "p42-pow2-geo-min1":
        "fdf4e967151c982b955ff667fa4be40dfb11f0280ea9a9210bef50de8ac8bf46",
    "p42-pow2-geo-zero":
        "4d9694c5319973276b848d43549f078de645577b28b8ed693464bff6a1255762",
    "p42-pow2-geo1":
        "3cc214411acf20892b5832cf0c007d995ef438ec926bc1e384cb36c9f2bd1cf2",
    "p42-pow2-geo1.2":
        "9275bebb74c2e98a2effd7baa533a1b53186ed014941990ff1c3962fc90dd1b7",
    "p42-pow2-geo:norms":
        "36f89d3be41d39facee0bdf19622381e12af575730f52a4a14a027855deb22da",
    "p42-pow2-geo:sigma":
        "95a169447781c972320fda4ed995d7572622ce8874ff35626b76864656c2c054",
    "p42-pow2-geo:weighted":
        "a41589a1277f6d01472828a89b5a7d7c3260dd4ea2d64d664b9c48704ba98cde",
    "p42-pow2-pow-0.5":
        "4ab25127c93a77a4efe88a94985867a5a5713a4de41cb8116d90d162633df468",
    "p42-pow2-pow-1":
        "1e2bfa8028de64f7d1944cae5f7254e18e81857afe9c6e15ca4772e359c6e69e",
    "p42-pow2-pow-2.5":
        "323323319635e781cc6861fe971100d78e1221fbf370cc5539a8dda7be4b2cd8",
    "p42-pow2-pow-2.5:weighted":
        "fcae3909875e012e52ad91179ecc4991a1d742d813e5ba7df0f74a0b439d2c77",
    "p42-pow2-pow-3.5":
        "ec6acb0b235af70c2635e5f50afb64de3cb486610c551034fe189e8e5d23e93e",
    "p42-pow2-pow-maj":
        "f4deba5e6503fff76ff3219b07eb4b25b9fa13293fa986069071972f0b71ba89",
    "p42-pow2-pow-maj-3":
        "d3afe9ddd1afa5e912568178caa2dd82d90ced5eed24aabb7a43309a8098ce88",
    "p42-pow2-pow-min-0.5":
        "ff8527cc8a3b7c94b0b177324738351fd77fac2ce75222ed4ef55dd416617be1",
    "p42-pow2-pow-min-3":
        "52aa0d93dfa9b384da37583e64cf80be69ea13639db1143fbe4bfb3f47022bab",
    "p42-pow2-pow-zero":
        "a4be713081a18e30aac898ddb32161d197e680b6a112d0decf1a8c3239acf1c5",
    "p42-powmaj0-geo":
        "e83a326e721b899a04cebaf9229c25e433bb4778c6af4f4941f739f0c7069475",
    "p42-powmaj0.5-geo":
        "f0c83bae43924058a10d8f757a33a515ddeae8a4feb4e1da7a70dcfd19a88b37",
    "p42-powmaj2-geo":
        "c8b1aa643379f19c4c522cb7f57a11079b64550ee79d7b57aa19176ae13342bb",
    "p42-powmin0.5-geo":
        "276e512ff11c707b1ed421117cd18ce0c7b08dcdb0cae2d5cf04689e72a67a5b",
    "p42-powmin2-pow-2.5":
        "b5b44d6ebf35e0f685f29346b7a190bb16e3a96b5ea855ec93bb358465ce7cde",
    "p42-powmin2-pow-3.5":
        "de91d6218e1f985a40d504db4043d0d59ca72d706c17f3f39af0044b0a7ed4d1",
    "p42x-explicit":
        "952c21600eeff3c50b7b9b287506ae649d783b0aae916ef41da3612870b18482",
    "p42x-explicit:translation":
        "110fdc497cba9d330e296a50797d5f8db8465b3206a062670674dd20940ca00a",
    "p42x-explicit:twist_majorant":
        "4189f33cd7c2457fc7f1ece972472c3d6f4febbf0c0bd42e067eb61ede81775f",
    "p42x-geo0.9":
        "f46fa618254e0d87f85bab21e8b57b5823d1fa4e8fdd1eefd9ece0f370b5dc9a",
    "p42x-geo1":
        "8c37fe0f4dfd84241e26898717caaf00c84bc367fb4dd2b8f1477dcd04d492eb",
    "p42x-geo1.5":
        "1d163c4b95ca68b372a566c192862a8693c3da2f836ad439fbca533e7406772f",
    "p42x-geo1.5:translation":
        "284066505e8bf9ba7b1bb9f3e189a39226af4bc3c35c6bc9a0dbfec803717ea6",
    "p42x-geomaj1.5":
        "a473ddb48eda9704488effe95068f10c9f05af925c6db123f550ce387f28408c",
    "p42x-geomin1.5":
        "da6f5f3aaa80c35a1fd7218d4e8bfa96188c22902567ef90780438001b2d3bba",
    "p42x-norm-zero":
        "a990cabf15899f31159f11dc14b361c6a56dd2f6a59e84bfbec081eacf37bdf0",
    "p42x-norm-zero:twist_majorant":
        "230181693b02ce0cf1c555caf8de1a605426aaa106a6aad38aae128d10e1e4ad",
    "p42x-overflow":
        "c6901945e164e1be66a73f791b7d0f4abe802679cf383a19b2e4b8aa5e60cee8",
    "p42x-overflow:sigma":
        "0a4f4dcdf029315cbcca311e71bba1e82911758b3e28415c329b97c21ec6ced4",
    "p42x-overflow:translation":
        "c0fbbf90627ab8626a5e211a3f65e01b322a3b88580cbc5f9184cb44bb91fbd1",
    "p42x-overflow:twist_majorant":
        "a900f4c246ab1fbc81c9ac4e3fa8f2b518f57d0e4f8c1e85e8c6c5b37ea73ea7",
    "p42x-overflow:weighted":
        "e57146c417de7c5c17d7c5b2df75568c8a582e9d3b0b50fd9855a81b7f58aab6",
    "p42x-pow-neg":
        "f1c7c92aea681e2fc014f06d7765e4207616123d1543834a6bddbfeb2dfcb4cc",
    "p42x-pow0.5":
        "28076426313760db2e9c5c2befa0f1cfe5eb7ada233cf3fe35b722acfb42b4f7",
    "p42x-pow0.5:translation":
        "c1f673b577c879fda2f029aaf5c8d2cb076869d109b33ccdc0839da75ec1c993",
    "p42x-pow2":
        "61c19d3c5701142c68e2c3faa8d104112c35832b9d025dfb83552bbc7f81c16a",
    "p42x-pow2-r3":
        "d92e9690048fa805a279491959dcf3ef5bf2204ce043afa10778cc70ca748231",
    "p42x-pow2:translation":
        "c164fb9864a679e1a8019b661e90846c84b43b2ddbf3442bb44092ab1d4503f2",
    "p42x-pow2:twist_majorant":
        "9da65ffda77ce73abf430f32067edd82865fe50403628fb6bcd5ce5a7e27cdfc",
    "p42x-powmaj0.5":
        "b5e2c95c36012a2b05e0fe88881d7725e6fac9e0d4358f62e8daed852cc1aeab",
    "p42x-powmaj2":
        "65bef7241ac33f5a2a05c91c26e4906d31f49640896c83415ef6446a9c3c49ab",
    "p42x-powmin0.5":
        "84347ba87a119ee7390ebadabf0798c4d3d9269749c6432816fc6fd4600c8e97",
    "p42x-zero":
        "074155d1173f8ad7c60f01404e2a94dddbb75dfbe24fbc6f848aefa5cea634d1",
    "p42x-zero:translation":
        "863949cbbb519029968ba66e1bbfc3eb612d8dee639841ef0efc0f174c1b025b",
    "prod-angles-geo":
        "65c67d8db3a6a14c47bd42b0d5f08d61bafcce7c6215b024ca26fb5a8b65f8d2",
    "prod-angles-geo:terms":
        "5a00af4cf3760a3a47133e57f05b98cf410f5d44c85ff7fae63c3f593ba1eae2",
    "prod-angles-model":
        "a62e53032620aa70befcae94990791153018ddf27b9eddcf7a565015c586147f",
    "prod-angles-pow":
        "b3a26489483c48acb33e36bd9fb4228ec89b1f72dfc1ce6dc6e0ccc3c145f811",
    "prod-angles-pow:terms":
        "cf19f69c0b71ece3a77b0347660376ed342713c5aa3afe4b3f6cc89d57ded737",
    "prod-angles-slow":
        "d917140208b07ed2d68086998109ff9b57a79d30384e16d6063d8c9d604ed165",
    "prod-values-geo":
        "682d9ab18596edcde8f124147e39dd39a806165b2050690faee843b239a7ef00",
    "prod-values-geo:terms":
        "cacd38e7a3d1aced37c44a0d5b565475c9903ca455ddba065f8f7655ad000fe6",
    "sel-fail-r2":
        "f753fba75aaa00fe9ad4276b339a9a599bf7b021e4c40af8742473c7bac1d743",
    "sel-fail-r3":
        "f634ba6f2e75df85391f2a146397806b9f6a8f57a47d2aa021e0a54edb2b43c4",
    "sel-r2":
        "bfb154527aebdf23afcaec34f6b20a6fa1ae3bea8845691ba0abc45c6fdfb667",
    "sel-r2:sups":
        "6001469fd75f4a8e7a7f9da4666ac948c7a2b5343d15f5aae99053b6e7c884c1",
    "sel-r3":
        "58a37227e27ffa6bd1965d3ee06d83b3c59d2cb7ddfc6e13d1f4d1502a1b0bfd",
    "sel-r3:sups":
        "7feac4b2fd32b6c76b507f2c385390f874907b62cd6324fc56a704c16e388b12",
    # CSV edge rows and box defects past 2^53 points, recorded before the
    # columnar certificate path replaced the per-index loops.
    # Re-recorded when NaN terms stopped proving anything: the product_cocycle
    # clause was Certified on a NaN partial sum and a NaN tail bound, and is
    # now Undetermined.  Its CSV renderings below are unchanged.
    "csv-nan-norms":
        "9493b8ab5b665f263caeceb6618e75dcaded211fcf74c304a4375463cb858861",
    "csv-nan-norms:norms":
        "7c724ced4c232c60c253f327702dadcd63875dd315e8a20067c9a535181ccbe9",
    "csv-nan-norms:weighted":
        "c01b4ada966ad69f067aae036db97aea11f45a336745560b02b885a1a52f0c47",
    "csv-overflowed-sum":
        "c6fd750e25042e655728c5ebb627a899ff63723a693e75e75b8f48ed75af71f4",
    "csv-overflowed-sum:norms":
        "311fedfd498cb5d7f537a77bc071a7500fa84d59d904857806cf5083138e92ef",
    "csv-overflowed-sum:weighted":
        "053e3d546762bd47d9a719b896b1cf376ecdc78769807e6f5682a4e9498e35bc",
    "csv-overflowed-sum:sigma":
        "336a3e3df4fda672519e91a57f89522780a4bbe9c0b845a3b774d83a7f7d3019",
    "csv-negative-zero":
        "0c5ea621bfec195c66972f18a1deff5f0670b86be16e893bfe4c9702aff4e57a",
    "csv-negative-zero:norms":
        "4170b294340e952aca0908a35455e9a729e9ad75b3027915f3c136217e2358ae",
    "csv-negative-zero:weighted":
        "be4c9d0b59fb2ff41758e1073112d5f6019c2b8e890a3320a52ce0026c2f91d7",
    "csv-bounds-past-prefix":
        "19b3c8bb2b40decef1cb83161ff6834f48a441e6ddbb614278ff79d2d334add2",
    "csv-bounds-past-prefix:terms":
        "38b03af5b66420e3ae4be31bf44581f1a3654bb6b3da5f08eab5a7137307100f",
    "csv-nan-value":
        "79d369f1c1652cc1abc4005f45c0fef2235580395176912d1a573c1368f339e3",
    "csv-nan-value:terms":
        "7227102339d7dfb1570afb403cbf915b3a9f3091bd83e0240ce54b364fb7bbfc",
    "csv-nan-amplitude":
        "7f1ada38ced76b6489ea923ee7d6a57db9af19f228a9f502f751521649c34e0c",
    "csv-nan-amplitude:deficit:1":
        "cf292fd36c1c94b2fb3ef1437ca50f9b1e03d952eda1182b90828863ca93b83c",
    # CSV cells past the edge rows above, recorded before the vectorized
    # .17g kernel replaced one str.format per cell.
    "csv-subnormal-ties":
        "5a6f65021317d71718ee1b335caaa79f88e73068cc5d704e0132e621026ae202",
    "csv-subnormal-ties:norms":
        "ff83563411417afec790aabdb5602ce81ce2caf485f66d265513457068afa51a",
    "csv-notation-switches":
        "8542f7655fa2b2cd91af26beb1330c1ac3be855151912f9d5755ad7a6d79793f",
    "csv-notation-switches:norms":
        "bcc44f86cf4a03e99ffb217577562f560d89ae0e5f6809dd7b9d276ad4ba78f7",
    "csv-exponent-widths":
        "70b2acdaae021f0ac4fdcf11ed536b0b32aed74954383dd4ea9742f8eb90bc23",
    "csv-exponent-widths:norms":
        "f632f27c1e05354b24ce528d8fe97fb68628e23cdace34d1e1a13096e5243729",
    "csv-decade-carry":
        "02a20dda738d5e6337908fabb0dd6fd84605f41062a8a364ba146fb25409984e",
    "csv-decade-carry:norms":
        "27458287d1a534f26d9ac1adb7290c585e8f0d3e5709132c96f48408ad86230d",
    "csv-bound-cells":
        "6f4404927aaec0a90ae3a03dc6fb7b0faa0eda0d5802ab31a8d3422f9d5ccaa6",
    "csv-bound-cells:terms":
        "a06510d919cf20449fe87266895b7afcb77af0c1df37a86e2d3a86242d14cbcf",
    "csv-row-indices":
        "ca536f56fa64ed33b8c2e6050b09e0a7dcc2cda97f45e3e392f8cd72c8a6556e",
    "csv-row-indices:terms":
        "197b84729569561e48fa6ec1f29f0a0db6e96a8e25d5eea09f1655000e9ba0ae",
    "p42x-cross-2^53":
        "e77fc5dbd564c73cfb89d19a0c6ea20d846746c4b58c8cf3aa7d02df8e6a9ea8",
    "p42x-cross-2^53:translation":
        "fee191a228d4d1d5cdbfe93e73a883cea6b9699c30858bbe0d58f214d830b7b8",
    "p42x-cross-2^53:twist_majorant":
        "a2cbe87fb3db5fa42469016eba8cb34f1c4f2a0770799b0db0ed3c21c2f6a14c",
    "p42x-big-r3":
        "db84c41f4ca8110290380faafa9c05b69d74876f509a6658cb4bea4a734c23ae",
    "p42x-big-r3:translation":
        "95481dd7c587b05a71a584483ef3c92923d32bc6078fefd658e9e967a7795adc",
    "p42x-k2-sides-past-2^53":
        "678d3f784bc96807adf8b4bdadec8d08532cc8ddde6cbe3ef1ebe4fba686ca75",
    "p42x-k2-sides-past-2^53:translation":
        "e3a682d1a2ec3c0920c5fa31c0471712c74a197d53685b4f6bee00d4e861a39b",
    "p42x-k3-wide-x":
        "9836335fd260c1b2d77b150908a9cfc986e3dceccc0a1378141a48138fd5d851",
    "p42x-k3-wide-x:translation":
        "21ff98526411cc4c81157b7c493d66e9052223e621b4d4661dd58b8c9062d506",
    "p42x-k4-cross":
        "dd817a57cab12885d29a7014a0875819793196d4316da81d99e031e09c97f468",
    "p42x-k4-cross:translation":
        "f48ae7a965ab143fae9d6601603c7be8aad0dd415ab3fe0d742ca532a0bdb9a0",
    "p42x-k2-huge-x":
        "51b7339a99b48b088661743a88a4da491dcc0daa7638c1f011bde1bd1927333c",
    "p42x-k2-huge-x:translation":
        "07e975dbb340abae7c77604dcae4dcee8d2c7bb134b654ed4ab20df8fbd57498",
    # recorded after the infinite-exponent mend: the parent never returned
    "p42-inf-exponent":
        "d9c6ec277da1cd5836586b0c3de05e94546072265ab03fba2e3fd12e226fbf2f",
    "p42-inf-exponent:weighted":
        "ee02644b0d0ae25f273095fae2299e2b0dab46c8db5e883240244a2be8035647",
    "p42x-inf-exponent":
        "fdfa7baff3dd0018a612e9b91e5cb7cf865d56d364392167c19596f3c1135b06",
    "p42x-inf-exponent:translation":
        "b7dab0d579251e8ad7135fdcbc1177ebf55281650f9feb1d165e91bb9169d9e7",
    "lib-action-regular-ext":
        "813fad3642c4262523df67690e837f110592816bf05fbfdf78a62273723383f8",
    "lib-action-regular-capped":
        "72425c2425b34c273afd5496f90b253a1ad7870a0d28c5dc1e4f5f024d25de48",
    "lib-action-rep-ext":
        "2d41f89c67195e2faf0cdafa2b8e909480e2c267286e6bf3aff6974195c3827b",
    "lib-action-rep-verdict":
        "d0f1c78e5be5cbb4d463afb5d64070fa9dfbcc6191bd9ae7857f969af1ff4e60",
    "act-fail-missing-row":
        "d8bf7763f9a8aaea5530e499500501f83822bcde669c0a557fcfbd208be40d6f",
    "act-fail-ragged":
        "a18f7f36a54c95fb176e93a08c2e0aed0f52e3a5a8afc7dbf9f7f02f204f1c3e",
    "act-fail-kind":
        "ac330b543f235ae1dd80bb018268b6085de53c76e2eafb8c04c7b5393fb7880e",
    "act-fail-modulus":
        "9717fea61d070c7f33d0d01a6f6b4a3d09631e2198763ceb0839ec1e5201f943",
    "act-fail-rank":
        "bda1ea67428a0bd55510a822ebb86198b591ee3831d177f4a4aa6ac5d960dce9",
    "p42-fail-tail-overflow":  # tail term 11 overflows a float (params.sides)
        "e15b7859ded7dd1f8f9f86f752d8ef1e321008e7cf67e0e9550600b46b4c64b6",
    "dir-fail-infinite-angle":  # math domain error at angle 2 (params.angles)
        "ea75b42350ce1e0b0a95c5715d14eccb9c18c58a6687ad3da513de6e7a135db4",
    "dir-subnormal-angle":
        "c8fe9acdc2e8432a303e5319562dc53cfcbda18e4c3748b199ae490402f81207",
    # dense commands
    "ccr-window-0":
        "a49d3e7549433fbf93fe2dffafae910ec3c5b30bf4b724f1ddb7b9bc1b643d4e",
    "ccr-window-1":
        "3384aa9f9b923d9853d280e06dc40946909e9ee832c83b5b5fd2118b4bb546e6",
    "ccr-window-10":
        "e1afb13f11abaab7f70a8de5d8a5c8e37e5d2101af033610a95ed64bbf502032",
    "ccr-window-13":
        "31e3a4acce08d63766e5367fd16ef42733fbbd12e74ec7f9b74964ef6ea4c14a",
    "ccr-window-63":
        "1a1ee6d569994598d41b45533497020efb01fb17cf9dde58d1873a7b1caa6de8",
    "ccr-table-b-larger":
        "5392ac8bb302541e65e6bd02e0d038be01090c506f4a2d05796cc492585128f7",
    "ccr-table-sampled":
        "8ed1b895365438b2f25898685fbfc178ac69957d4e620547336914af252715a5",
    "ccr-pauli":
        "9993453eb8d99683f829a6142d467d8f6058289a8d6e62e32a13f914cfe3d3a3",
    "fell-pauli-coboundary":
        "5aef03e254a9d0be786380e4b09d4b882f62e557d9bb84fb592d4e257cc998db",
    "fell-regular-perturb":
        "75adf9cfdea5cf0f3643c364e17e6c5be038c776a18229c769b4b06753ecbb1f",
    "fell-regular-product":
        "41e9e37651350c2468565699679676ff6255ddc300973308c0fa1201111ac2e9",
    "fell-regular-coboundary":
        "1c2ef78f133ceae259b9a0840826a2a151a038d258cdd879ed4daedb54c606dd",
    "tensor-three":
        "ec7e8bb05b45e266dec2d788488890236ee3d719fc92c2b831622bce4437af7f",
    "check-cocycle-table":
        "ef5b1edab4c200d3181ff6edb80e7b93cb64d73facf3d8f9c98810fd8c172d15",
    "obstruction-matrix":
        "6872fe6c92dd2317a8b1abe580a711534a61c2c354615ff03399b14609cdf6a7",
    "obstruction-list-v":
        "82b3583b6742464ff90e25c320c20bd58960e1c38e67bed094f76d2656c5db0f",
}


def test_every_rendering_has_a_digest():
    keys = ([key for key, *_ in RENDERINGS] + [name for name, _ in LIBRARY_CASES]
            + [name for name, *_ in FAILURES])
    assert sorted(DIGESTS) == sorted(keys)


@pytest.mark.parametrize("key,command,params,n_max,series", RENDERINGS,
                         ids=[r[0] for r in RENDERINGS])
def test_report_bytes_match_golden_digest(key, command, params, n_max, series):
    assert _digest(_report(command, params, n_max, series)) == DIGESTS[key]


@pytest.mark.parametrize("name,thunk", LIBRARY_CASES, ids=[c[0] for c in LIBRARY_CASES])
def test_library_verdicts_match_golden_digest(name, thunk):
    assert _digest(repr(thunk())) == DIGESTS[name]


@pytest.mark.parametrize("name,command,params,horizons", FAILURES,
                         ids=[c[0] for c in FAILURES])
def test_failure_messages_match_golden_digest(name, command, params, horizons):
    doc = {"command": command, "params": copy.deepcopy(params), "schema": 1,
           "horizons": horizons}
    with pytest.raises(CliError) as info:
        run_scenario(doc, command)
    assert _digest(f"{info.value.code} {info.value.message}") == DIGESTS[name]


# Cases whose relation residuals the monomial path computes, replayed on an
# OpenBLAS kernel without FMA; the other dense cases still print bits of
# BLAS calls that the kernel picks.
NON_FMA_BLAS_CASES = ("tensor-three", "ccr-table-b-larger", "ccr-table-sampled", "ccr-pauli")

# Child code that counts the entries of 20 diagonal products in which the
# live zgemm departs from reps._monomial_products, as ``unfused``.
NON_FMA_PROBE = """
import json
import numpy as np
from twistlab import reps

rng = np.random.default_rng(0)
unfused = 0
for _ in range(20):
    a, c = np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 3)))
    live = np.diag(a) @ np.diag(c)
    unfused += int(np.count_nonzero(np.diag(live) != reps._monomial_products(a[None], c[None])[0]))
"""

_NON_FMA_REPLAY = """
import test_report_golden as golden

cases = {case[0]: case for case in golden.CASES}
print(json.dumps({"unfused": unfused, "digests": {
    name: golden._digest(golden._report(*cases[name][1:4])) for name in NAMES}}))
"""


def replay_without_fma(code):
    """The last line that NON_FMA_PROBE followed by code prints, read as JSON,
    from a child process on OpenBLAS's Sandybridge kernel, which has no FMA."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", NON_FMA_PROBE + code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_relation_cases_keep_their_digests_on_a_blas_kernel_without_fma():
    found = replay_without_fma(f"NAMES = {NON_FMA_BLAS_CASES!r}\n" + _NON_FMA_REPLAY)
    # the child's zgemm really rounds differently from the FMA kernels
    assert found["unfused"] > 0
    assert found["digests"] == {name: DIGESTS[name] for name in NON_FMA_BLAS_CASES}
