"""OntologyHub integration: the hub actor path of ``build_kg_pipeline`` and
the hub's merge semantics."""

from ontocast_ray.corpus import generate_corpus


def test_ontology_hub_receives_deltas(ray_session):
    import ray
    import ray.data

    from ontocast_ray.pipelines.kg import build_kg_pipeline
    from ontocast_ray.state.ontology_hub import get_or_create_hub

    hub_name = "test_hub_deltas"
    corpus = generate_corpus(n_docs=6, seed=9)
    docs = ray.data.from_arrow(corpus)
    triples = build_kg_pipeline(
        docs, hub_name=hub_name,
        min_chunk_size=200, max_chunk_size=2000,
    )
    n = triples.count()
    assert n > 0
    hub = ray.get_actor(hub_name)
    snapshot = ray.get(hub.get_snapshot.remote())
    # seeds present
    assert "corp" in snapshot["ontologies"]
    # extraction merged novel term definitions into some ontology
    assert snapshot["version"] >= 1
    total = sum(len(o["triples"]) for o in snapshot["ontologies"].values())
    assert total > 0
    ray.kill(hub)


def test_hub_merge_is_commutative_and_idempotent(ray_session):
    import ray

    from ontocast_ray.state.ontology_hub import OntologyHub

    hub = OntologyHub.remote([])
    rows_a = [("s1", "p", "o", False, None, None)]
    rows_b = [("s2", "p", "o", False, None, None)]
    ray.get(hub.merge_delta.remote("x", None, rows_a))
    ray.get(hub.merge_delta.remote("x", None, rows_b))
    ray.get(hub.merge_delta.remote("x", None, rows_a))  # idempotent
    assert ray.get(hub.triple_count.remote("x")) == 2

    hub2 = OntologyHub.remote([])
    ray.get(hub2.merge_delta.remote("x", None, rows_b))
    ray.get(hub2.merge_delta.remote("x", None, rows_a))
    s1 = ray.get(hub.get_snapshot.remote())
    s2 = ray.get(hub2.get_snapshot.remote())
    assert set(map(tuple, s1["ontologies"]["x"]["triples"])) == set(
        map(tuple, s2["ontologies"]["x"]["triples"])
    )
    ray.kill(hub)
    ray.kill(hub2)
