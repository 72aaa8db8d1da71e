"""The Imry-Ma plateau: var(gap)/|Lambda_j| at the sizes the engine reaches.

The paper's theorem: for any disorder strength the even/odd response gap G_j
has var(G_j)/|Lambda_j| -> 0 (Aizenman-Wehr, Commun. Math. Phys. 130, 1990).
Coexisting crystal phases would keep that ratio at a positive plateau. By the
random-field analogy the length past which weak disorder breaks coexistence
up grows like exp(c / delta^2) in two dimensions (Imry-Ma, Phys. Rev. Lett.
35, 1975; Binder, Z. Phys. B 50, 1983), so a plateau may last past every box
the engine reaches.

The demo prints var(gap)/|Lambda_j| on the box of half-side L = 2j, with its
standard error ratio * sqrt(2 / (n - 1)) for Gaussian gaps, at activity
scales 2 and 8, either side of the pure model's lambda_c ~ 3.796. For the
uniform laws 1 - delta .. 1 + delta it also prints the ratio over delta^2,
which is flat in delta where linear response holds. It asserts nothing: a
finite table cannot show that a plateau persists, nor measure the Imry-Ma
length; it shows for each law and size whether the ratio has started to
fall. Every law reads the same replica keys.

JS and REPLICAS give a quick run. ``plateau(js, replicas)`` runs any size:
    python -c "import runpy; runpy.run_path('demos/06_imry_ma_plateau.py')['plateau'](range(1, 6), 200)"
"""
import math

from hardcore2d import DisorderSpec, box_lambda, response_gap, sample_fields

JS = (1, 2)
REPLICAS = 40
SEED = 2027
LAMS = (2.0, 8.0)
LAMBDA_C = 3.796  # the pure model's critical activity (Baxter-Enting-Tsang, J. Stat. Phys. 22, 1980)
DELTAS = (0.05, 0.1, 0.2, 0.4)
LAWS = [(DisorderSpec("uniform", (1 - d, 1 + d)), d) for d in DELTAS] + [
    (DisorderSpec("bernoulli", (p,)), None) for p in (0.95, 0.7)]  # (law, delta)


def row(label, cells):
    print(f"  {label:<20}" + "  ".join(f"{c:<20}" for c in cells).rstrip())


def plateau(js, replicas):
    err = math.sqrt(2 / (replicas - 1))
    for lam in LAMS:
        side = "below" if lam < LAMBDA_C else "above"
        print(f"lambda = {lam:g} ({side} lambda_c ~ {LAMBDA_C}), L = 2j, {replicas} replicas, seed {SEED}")
        print("var(gap)/|Lambda_j| +- standard error; for uniform laws also that ratio over delta^2")
        row("disorder", [f"j={j}" for j in js])
        for spec, delta in LAWS:
            ratios = []
            for j in js:
                fields = sample_fields(spec, box_lambda(2 * j).expand(1), lam, SEED, 0, replicas)
                ratios.append(float(response_gap(2 * j, j, fields).var(ddof=1)) / box_lambda(j).site_count)
            row(spec.label(), [f"{r:.3e} +- {r * err:.1e}" for r in ratios])
            if delta:
                row("  / delta^2", [f"{r / delta**2:.3e}" for r in ratios])
        print()


if __name__ == "__main__":
    plateau(JS, REPLICAS)
