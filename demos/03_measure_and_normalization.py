"""Measure tour: degrees, staged simplification, W, and chain bounds.

Run with: python3 demos/03_measure_and_normalization.py
"""

from setlam import (
    Fuel, W, erase, explore, infer_sn, i_redexes, is_sn,
    longest_chain, max_degree, measure_report, normal_form, parse_term,
    parse_type, parse_untyped, pretty, redexes, step_i, type_height, weight,
)

print("== Heights and degrees ==")
for text in ["a", "{a} -> a", "{{a} -> a, a} -> ({a} -> a)"]:
    print(f"  height({text}) = {type_height(parse_type(text))}")

IA = "\\x:{a -> a}. x^(a -> a)"
IAA = "\\x:{(a -> a) -> a -> a}. x^((a -> a) -> a -> a)"
start = parse_term(
    "(\\x:{(a -> a) -> a -> a, a -> a}. x^((a -> a) -> a -> a) {x^(a -> a)})"
    f" {{({IAA}) {{{IA}}}, ({IA}) {{\\x:{{a}}. x^a}}}}")
print(f"  start term: {pretty(start)}")
print(f"  redex degrees: {[r.degree for r in redexes(start)]}"
      f"   max degree: {max_degree(start)}")

print()
print("== Full simplification, one degree at a time ==")
report = measure_report(start)
for after_degree, stage, stage_max in report.stages:
    print(f"  after degree {after_degree}: max degree {stage_max}, weight {weight(stage)}")
print(f"  normal form: {pretty(report.normal_form)}")
print(f"  W = weight of the normal form = {report.measure}")
assert report.normal_form == normal_form(start, "im", Fuel(50_000, 50_000))

print()
print("== W strictly decreases along every plain reduction path ==")
term = start
trail = [W(term)]
while i_redexes(term):
    term = step_i(term, i_redexes(term)[-1].position)
    trail.append(W(term))
print(f"  W along one reduction path: {' > '.join(map(str, trail))}")

print()
print("== ... which bounds the longest reduction chain ==")
chain = longest_chain(start, "i")
graph = explore(start, "i")
print(f"  i-reduction graph: {graph.node_count} terms, longest chain {chain},"
      f" W = {W(start)}  (chain <= W: {chain <= W(start)})")

print()
print("== Typability characterizes strong normalization ==")
for text in ["\\x. x x", "(\\x. x x) (\\y. y)", "(\\x. y) z"]:
    m = parse_untyped(text)
    inferred = infer_sn(m)
    assert erase(inferred.term) == m
    ctx = inferred.context if inferred.context.entries else "(empty)"
    print(f"  {text:24s} SN, typed: {pretty(inferred.term)}")
    print(f"  {'':24s}   under {ctx} at {pretty(inferred.type_)}")
omega = parse_untyped("(\\x. x x) (\\x. x x)")
print(f"  (\\x. x x) (\\x. x x)     is_sn: {is_sn(omega, Fuel(200, 200))}  (no typing exists)")
