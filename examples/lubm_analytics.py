"""University analytics on the LUBM-style benchmark graph.

Shows a 3-dimensional facet (university x department x student type), a
space-budget selection instead of a view-count budget, and the trade-off
between storage amplification and workload latency.

Run:  python examples/lubm_analytics.py
"""

from repro import GreedySelector, Sofos, create_model, load_dataset

loaded = load_dataset("lubm", scale="small")
facet = loaded.facet("students_by_department")
print(f"LUBM graph: {len(loaded.graph)} triples")
print(f"facet: {facet!r} ({facet.lattice_size} views)\n")

sofos = Sofos(loaded.graph, facet)
profile = sofos.profile()

print("lattice profile:")
for view_profile in profile:
    print(f"  {view_profile.label:22s} {view_profile.rows:6d} groups "
          f"{view_profile.triples:7d} triples")
print(f"  full lattice would add {profile.total_triples()} triples "
      f"({profile.full_lattice_amplification():.2f}x amplification)\n")

workload = sofos.generate_workload(40)

# Reference: everything answered from the raw graph.
base_run = sofos.run_workload(workload, force_base=True)
print(f"no views:      {base_run.total_seconds * 1000:8.1f} ms "
      f"for {len(workload)} queries")

# A space budget of ~20% of the base graph, instead of "k views".
budget = len(loaded.graph) // 5
selector = GreedySelector(create_model("agg_values"), triple_budget=budget)
selection = sofos.select(selector=selector, workload=workload)
catalog = sofos.materialize(selection)
run = sofos.run_workload(workload)
print(f"budget {budget:5d}: {run.total_seconds * 1000:8.1f} ms "
      f"(views: {', '.join(selection.labels)}; "
      f"amplification {catalog.storage_amplification():.3f}x, "
      f"hit rate {run.hit_rate * 100:.0f}%)")

# Compare with plain k-view selection at several budgets.
for k in (1, 2, 4):
    selection, catalog = sofos.select_and_materialize("agg_values", k=k,
                                                      workload=workload)
    run = sofos.run_workload(workload)
    print(f"k = {k}:        {run.total_seconds * 1000:8.1f} ms "
          f"(views: {', '.join(selection.labels)}; "
          f"amplification {catalog.storage_amplification():.3f}x, "
          f"hit rate {run.hit_rate * 100:.0f}%)")
sofos.drop_views()
