"""Acceptance suite: one test per headline classification result.

Each criterion runs the CLI's scenario runners at its own seed and passes
when every assertion they make holds.  Run with

    pytest tests/test_acceptance.py -v -s

to see one PASS/FAIL line per criterion.
"""

from deeplocus.scenarios import SCENARIOS, run_scenario

# (test name, what the criterion asserts, the runners that check it, seed)
CRITERIA = [
    ("test_01_polygon_uniqueness",
     "type-A deep point exists exactly for ranks 3,7 over Q and 1,5,9 over "
     "F2, residual-checked and brute-force certified",
     ["polygon-uniqueness"], 0),
    ("test_02_finite_field_cover_check",
     "F3 scans: the pentagon has 0 deep points, the hexagon exactly 1, equal "
     "to the formula point",
     ["polygon-scan"], 0),
    ("test_03_boundary_coefficient_deep_points",
     "100 seeded hexagon edge sets with the solved closing edge all extend to "
     "certified deep points; any single-edge perturbation violates the "
     "condition; figure values give x_{2,5} = -4",
     ["polygon-hexagon"], 20240803),
    ("test_04_rank2_counts",
     "rank-2 deep point counts 0/1/4 for (1,1)/(2,1)/(2,2), Kronecker counts "
     "0 over Q and 2 over F2, all verified at window depth 10",
     ["rank2-counts"], 0),
    ("test_05_rank2_closed_form",
     "division form and g-polynomial closed form agree at 100 seeded torus "
     "points for (b,c) in {(2,2),(3,1),(1,3),(2,3)}, f in {0,1}",
     ["rank2-closed-form"], 20240805),
    ("test_06_markov_enumeration",
     "F5 scan finds 29 deep points matching the four-type classification, F3 "
     "finds 3; depth-6 exploration passes for all of them and M is invariant "
     "at 50 torus points",
     ["markov-enumerate"], 20240806),
    ("test_07_markov_collapse",
     "type-A deep points over F5 collapse to a single representative; X/Y/Z "
     "restriction is injective off the origin",
     ["markov-collapse"], 0),
    ("test_08_surface_component_counts",
     "deep component counts 2/0/4/2 for the (2,2)-annulus, (2,1)-annulus, "
     "genus-1, and (1,1)-annulus; dissection and cut-polygon sizes match the "
     "formulas",
     ["surface-components"], 0),
    ("test_09_surface_deep_certification",
     "the (2,2)-annulus deep point survives a 500-step seeded flip walk with "
     "zero failures; the two single-arc dissections are non-congruent with "
     "distinct classes",
     ["surface-deep-walk"], 20240809),
    ("test_10_appendix_bijections",
     "genus-1 subset bijection exhausts the 4 classes; double-cover "
     "indicators equal the dissection classes; the Dehn twist swaps the "
     "(1,1)-annulus components and squares to the identity",
     ["appendix-bijections"], 0),
    ("test_11_cut_glue_round_trips",
     "the bad-cut hexagon reproduces exactly (non-deep point with one deep "
     "half) and cut-then-glue is the identity on 100 seeded valid points",
     ["badcut", "cut-glue"], 20240811),
    ("test_12_polygon_a3",
     "the rank-3 type-A point over Q: residuals vanish, long diagonals carry "
     "-1, even-gap diagonals vanish, certified deep over all 14 "
     "triangulations",
     ["polygon-a3"], 0),
]


def _criterion(number, description, names, seed):
    def test():
        failures = [
            (name, d, w)
            for name in names
            for d, ok, w in run_scenario(name, seed=seed).assertions
            if not ok
        ]
        print(f"[criterion {number:02d}] {'FAIL' if failures else 'PASS'}: {description}")
        assert not failures, failures

    return test


# one module-level test per row, so each criterion keeps its own test name
for number, (test_name, *row) in enumerate(CRITERIA, 1):
    globals()[test_name] = _criterion(number, *row)


def test_criteria_cover_every_scenario():
    names = [name for _, _, names, _ in CRITERIA for name in names]
    assert sorted(names) == sorted(SCENARIOS)
