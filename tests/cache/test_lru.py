"""Unit tests of the bounded, counted LRU cache."""

import pytest

from repro.cache import CacheRegistry, LRUCache, canonicalize_query


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_put_reports_how_many_entries_it_evicted(self):
        cache = LRUCache(capacity=2)
        assert cache.put("a", 1) == 0
        assert cache.put("b", 2) == 0
        assert cache.put("a", 10) == 0  # overwrite: nothing leaves
        assert cache.put("c", 3) == 1
        assert LRUCache(capacity=2, enabled=False).put("a", 1) == 0

    def test_put_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite refreshes
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_disabled_cache_never_stores(self):
        cache = LRUCache(capacity=4, enabled=False)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.stats().misses == 1

    def test_invalidate_and_clear(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_hit_rate(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.stats().hit_rate == 0.5


class TestCacheRegistry:
    def test_stats_and_describe(self):
        registry = CacheRegistry(plan_capacity=8, subresult_capacity=8)
        registry.plans.put("k", "plan")
        registry.plans.get("k")
        text = registry.describe()
        assert "plans" in text and "subresults" in text
        assert registry.stats()["plans"].hits == 1

    def test_clear(self):
        registry = CacheRegistry()
        registry.plans.put("k", 1)
        registry.subresults.put("k", 2)
        registry.clear()
        assert len(registry.plans) == 0
        assert len(registry.subresults) == 0

    def test_disabled_flags(self):
        registry = CacheRegistry(plans_enabled=False, subresults_enabled=True)
        assert registry.plans.enabled is False
        assert registry.subresults.enabled is True


class TestCanonicalizeQuery:
    def test_collapses_whitespace(self):
        assert (
            canonicalize_query("SELECT  *\n WHERE {\t?s ?p ?o }")
            == "SELECT * WHERE { ?s ?p ?o }"
        )

    def test_preserves_string_literals(self):
        a = canonicalize_query('SELECT * WHERE { ?s ?p "a  b" }')
        b = canonicalize_query('SELECT * WHERE { ?s ?p "a b" }')
        assert a != b
        assert '"a  b"' in a

    def test_strips_comments_outside_strings(self):
        text = 'SELECT * # all vars\nWHERE { ?s ?p "x # not a comment" }'
        canonical = canonicalize_query(text)
        assert "all vars" not in canonical
        assert "# not a comment" in canonical

    def test_escaped_quote_does_not_end_literal(self):
        canonical = canonicalize_query('SELECT * WHERE { ?s ?p "a\\"  b" }')
        assert 'a\\"  b' in canonical

    def test_equivalent_formattings_share_a_key(self):
        one = "SELECT ?x WHERE { ?x a <http://ex/C> }"
        two = "  SELECT   ?x\nWHERE   {\n  ?x a <http://ex/C> }  "
        assert canonicalize_query(one) == canonicalize_query(two)
