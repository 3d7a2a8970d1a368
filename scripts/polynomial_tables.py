#!/usr/bin/env python3
"""Print the headline objects: sequence tables, polynomial families, the
negative-parameter table, extension thresholds, and recurrence coefficients.

Usage: python scripts/polynomial_tables.py
"""

from fractions import Fraction

from delannoy_jacobi import families as fam
from delannoy_jacobi import functionals as fn
from delannoy_jacobi import paths as lp
from delannoy_jacobi.render import format_poly


def main() -> None:
    print("central Delannoy numbers d(n,n) and the Legendre values P_n(3):")
    for n, d in enumerate(lp.central_delannoy(9)):
        print(f"  n={n}: d={d}  P_n(3)={fam.legendre(n)(3)}")

    print("\nSchroeder numbers and 2/(n+1) P_n^(-1,1)(3):")
    for n, s in enumerate(lp.schroder_numbers(9)[1:], start=1):
        print(f"  n={n}: s={s}  value={Fraction(2, n + 1) * fam.jacobi(n, -1, 1)(3)}")

    print("\nshifted polynomials with second parameter -6 (n = 0..8):")
    for n in range(9):
        print(f"  n={n}: {format_poly(fam.shifted_jacobi(n, 0, -6))}")

    print("\nSchroeder polynomials S_n and Narayana polynomials N_n:")
    for n in range(1, 7):
        print(f"  n={n}: S={format_poly(fam.schroder_poly(n))}")
        print(f"       N={format_poly(fam.narayana(n))}")

    print("\nextension thresholds t* for odd second parameter:")
    for beta in (3, 5, 7, 9, 11):
        print(f"  beta={beta}: t* = {fn.lbeta_extension_threshold(beta)}")

    print("\nthree-term recurrence coefficients of the monic Legendre family:")
    fits = fn.favard_fit([fam.monic_legendre(n) for n in range(9)])
    for n, (c, lam) in enumerate(fits, start=1):
        print(f"  n={n}: c={c} lambda={lam}")

    print("\nand of the monic Schroeder-derived family (lambda_2 = 0):")
    fits = fn.favard_fit([fam.monic_schroder(n) for n in range(9)])
    for n, (c, lam) in enumerate(fits, start=1):
        print(f"  n={n}: c={c} lambda={lam}")


if __name__ == "__main__":
    main()
