"""Broken recovery matrices (mutants), and what each check makes of them.

A mutant edits a copy of one code's R, or its error classes with R itself
unchanged, and takes the place of analysis.recovery_for's R. The table holds
what each check gives on it:
- rejected: RecoveryMatrix's message, or None when it accepts the mutant
  (a rejected mutant reaches no other check, and its other columns are
  empty);
- cases_passed and failed: how many verify_code cases (seed 42, default
  tolerance) pass, and how many cases fail each condition;
- vertices_failed: the single-term channels that trajectory_statistics
  fails, at 100 samples on alpha = 0.6, beta = 0.8.

A mutant that every check passes is harmless. Only the completion-row
rotation is: it changes no row that an error class pins.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class Mutant(NamedTuple):
    name: str
    code: str
    # Edits R's rows and the list of its classes, both copies, in place.
    edit: Callable[[np.ndarray, list], None]
    rejected: str | None
    cases_passed: int
    failed: dict
    vertices_failed: tuple


def swap_rows(*pairs):
    def edit(r, classes):
        for i, j in pairs:
            r[[i, j]] = r[[j, i]]
    return edit


def swap_classes(i, j):
    def edit(r, classes):
        classes[i], classes[j] = classes[j], classes[i]
    return edit


def negate_rows(*rows):
    def edit(r, classes):
        r[list(rows)] *= -1.0
    return edit


def add_to_entry(i, j, eps):
    def edit(r, classes):
        r[i, j] += eps
    return edit


def rotate_rows(theta, *pairs):
    """Turn rows i and j of each pair by theta in their own plane: row i
    becomes cos(theta) r_i + sin(theta) r_j."""
    def edit(r, classes):
        c, s = np.cos(theta), np.sin(theta)
        for i, j in pairs:
            a, b = r[i].copy(), r[j].copy()
            r[i], r[j] = c * a + s * b, c * b - s * a
    return edit


# divincenzo5: 16 classes, so row m * 16 + c is class c's row for logical
# value m; class 1 is X_1 and class 2 is X_2. shor9: 22 classes (class 1 is
# X_1), so rows 22-255 and 278-511 are completion rows.
MUTANTS = (
    # Still (qubit) x (diagonal ancilla) on every case, with the syndrome
    # under the wrong labels: only trajectory's per-sample target, built
    # from class_map, sees it.
    Mutant("divincenzo5 class rows swapped", "divincenzo5",
           swap_rows((1, 2), (17, 18)), None, 135, {}, ("X_1", "X_2")),
    Mutant("divincenzo5 classes swapped, R unchanged", "divincenzo5",
           swap_classes(1, 2), None, 135, {}, ("X_1", "X_2")),
    # The m = 0 row alone: the qubit's sign flips under X_1.
    Mutant("divincenzo5 one labeled row negated", "divincenzo5",
           negate_rows(1), None, 99, {"fidelity": 36, "product_form": 33}, ("X_1",)),
    # The sign squares away in every density matrix, but a recovered X_1
    # sample is -(psi (x) e_1), 2 away from its target: caught, not harmless.
    Mutant("divincenzo5 both rows of a class negated", "divincenzo5",
           negate_rows(1, 17), None, 135, {}, ("X_1",)),
    # Row 0 has norm 1 + 2 * 0.25 * 1e-6 + 1e-12 with this entry.
    Mutant("divincenzo5 entry off by 1e-6", "divincenzo5",
           add_to_entry(0, 0, 1e-6), "not orthogonal (deviation 5.000e-07)", 0, {}, ()),
    Mutant("shor9 completion rows rotated", "shor9",
           rotate_rows(0.3, (22, 23), (278, 279)), None, 195, {}, ()),
    # X_1's mass splits between its slot (cos^2 0.3) and completion row 22
    # (sin^2 0.3): still a product with the qubit recovered, but the ancilla
    # is not diagonal in every case with X_1 in its channel.
    Mutant("shor9 class row rotated into the completion", "shor9",
           rotate_rows(0.3, (1, 22), (257, 278)), None, 135, {"ancilla_diagonal": 60}, ("X_1",)),
)


def mutant(name: str) -> Mutant:
    (found,) = (m for m in MUTANTS if m.name == name)
    return found
