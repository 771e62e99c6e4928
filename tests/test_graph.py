import random
import tracemalloc
from collections import Counter

import pytest

import fountain_lab.graph as graph
from fountain_lab.degree import exact_case_probs
from fountain_lab.graph import (
    Case,
    Classification,
    CodedSymbol,
    ContractViolation,
    DecodeGraph,
    MalformedSymbol,
    SourceBlock,
    xor_bytes,
)

from reference import ReplayPeeler


def sym(*indices, payload=None):
    return CodedSymbol(tuple(sorted(indices)), payload)


def test_new_graph_initial_state():
    g = DecodeGraph(4)
    assert g.recovered_count == 0
    assert g.largest_white_component() == 1
    assert g.component_histogram() == {1: 4}
    g = DecodeGraph(1000)
    assert g.beta() == 0.0
    with pytest.raises(ValueError):
        DecodeGraph(1)


def test_coded_symbol_validation():
    with pytest.raises(ValueError):
        CodedSymbol((3, 3))
    with pytest.raises(ValueError):
        CodedSymbol((5, 2))
    with pytest.raises(ValueError):
        CodedSymbol(())


def test_classify_case1_after_partial_recovery():
    blk = SourceBlock.random(6, 4, random.Random(1))
    g = DecodeGraph(6)
    g.apply_case1(0, blk.symbols[0])
    c = g.classify(sym(0, 1, payload=blk.encode((0, 1))))
    assert c.case is Case.CASE1
    assert c.target == 1
    assert c.value == blk.symbols[1]  # payload xor v0


def test_classify_case2_cycle_duplicate():
    g = DecodeGraph(8, track_values=False)
    c = g.classify(sym(2, 5))
    assert c.case is Case.CASE2 and (c.a, c.b) == (2, 5)
    g.apply_case2(2, 5, None)
    assert g.classify(sym(2, 5)).case is Case.CYCLE
    assert g.classify(sym(1, 3, 6)).case is Case.TOO_MANY_UNKNOWN
    g.apply_case1(2, None)   # blackens {2, 5}
    assert g.classify(sym(2, 5)).case is Case.DUPLICATE
    with pytest.raises(MalformedSymbol):
        g.classify(sym(0, 9))


def test_classify_checks_both_ends_of_the_range():
    g = DecodeGraph(8)
    with pytest.raises(MalformedSymbol, match="index -1 out of range"):
        g.classify(sym(-1, 3))
    with pytest.raises(MalformedSymbol, match="index 8 out of range"):
        g.classify(sym(2, 5, 8))


def test_trusted_symbol_equals_checked_symbol():
    t = CodedSymbol._trusted((1, 4, 9), b"\x01\x02")
    c = CodedSymbol((1, 4, 9), b"\x01\x02")
    assert t == c and hash(t) == hash(c)
    assert CodedSymbol._trusted((3,), None) == CodedSymbol((3,))


def test_classify_xors_only_useful_symbols(monkeypatch):
    blk = SourceBlock.random(8, 4, random.Random(2))
    g = DecodeGraph(8)
    g.apply_case1(0, blk.symbols[0])
    g.apply_case1(1, blk.symbols[1])
    g.apply_case2(2, 3, xor_bytes(blk.symbols[2], blk.symbols[3]))
    too_many, duplicate, case1, case2 = (
        sym(*t, payload=blk.encode(t)) for t in ((0, 4, 5, 6), (0, 1), (0, 1, 4), (1, 4, 5))
    )
    calls = []

    def counting_xor(a, b):
        calls.append(1)
        return xor_bytes(a, b)

    monkeypatch.setattr("fountain_lab.graph.xor_bytes", counting_xor)
    assert g.classify(too_many).case is Case.TOO_MANY_UNKNOWN
    assert g.classify(duplicate).case is Case.DUPLICATE
    assert calls == []
    c1 = g.classify(case1)
    assert (c1.case, c1.target, c1.value) == (Case.CASE1, 4, blk.symbols[4])
    c2 = g.classify(case2)
    assert (c2.case, c2.a, c2.b) == (Case.CASE2, 4, 5)
    assert c2.xor == xor_bytes(blk.symbols[4], blk.symbols[5])
    assert len(calls) == 3


def test_apply_case1_isolated_node():
    g = DecodeGraph(5)
    out = g.apply_case1(3, b"\x07")
    assert out == [(3, b"\x07")]
    assert g.recovered_count == 1
    with pytest.raises(ContractViolation):
        g.apply_case1(3, b"\x07")


def test_apply_case1_on_an_isolated_node_keeps_the_peels_bookkeeping():
    # value-tracking: the first CASE1 fixes the payload length
    g = DecodeGraph(5)
    assert g.apply_case1(2, b"ab") == [(2, b"ab")]
    assert g._payload_len == 2
    assert g.adj[2] == () and g.recovered_count == 1 and g.values[2] == b"ab"
    with pytest.raises(MalformedSymbol, match="^payload length 3, not the stored 2$"):
        g.process(CodedSymbol((3, 4), b"abc"))
    assert g.recovered_count == 1 and not any(g.adj)
    # counting: the value stored is None, whatever was passed
    g = DecodeGraph(5, track_values=False)
    assert g.apply_case1(2, b"ab") == [(2, None)]
    assert g._payload_len is None and g.values == [None] * 5
    assert g.adj[2] == () and g.recovered_count == 1
    # a node whose edges were peeled away is isolated again
    g = DecodeGraph(5)
    g.apply_case2(0, 1, b"\x01")
    g.apply_case1(0, b"\x02")
    assert g.apply_case1(3, b"\x04") == [(3, b"\x04")]
    assert g.recovered_count == 3 and all(not g.adj[i] for i in range(5))


def test_apply_case1_chain_propagation():
    # chain 1-2-3 with hand-picked one-byte values
    v1, v2, v3 = b"\x10", b"\x5a", b"\xc3"
    e12, e23 = xor_bytes(v1, v2), xor_bytes(v2, v3)
    g = DecodeGraph(5)
    g.apply_case2(1, 2, e12)
    g.apply_case2(2, 3, e23)
    out = dict(g.apply_case1(1, v1))
    assert out == {1: v1, 2: v2, 3: v3}
    assert g.recovered_count == 3
    assert all(not g.adj[i] for i in range(5))


def test_apply_case1_star_against_elimination_oracle():
    blk = SourceBlock.random(8, 2, random.Random(3))
    g = DecodeGraph(8)
    center = 4
    oracle = ReplayPeeler(8)
    for leaf in (0, 1, 2, 6):
        pair = tuple(sorted((center, leaf)))
        g.apply_case2(pair[0], pair[1], blk.encode(pair))
        oracle.offer(pair, int.from_bytes(blk.encode(pair), "big"))
    got = dict(g.apply_case1(center, blk.symbols[center]))
    oracle.offer((center,), int.from_bytes(blk.symbols[center], "big"))
    assert len(got) == 5
    assert set(got) == set(oracle.known)
    for i, val in got.items():
        assert val == blk.symbols[i]
        assert oracle.known[i] == int.from_bytes(blk.symbols[i], "big")


def test_apply_case2_sizes_and_errors():
    g = DecodeGraph(10, track_values=False)
    assert g.apply_case2(0, 1, None) == 2
    assert g.apply_case2(2, 3, None) == 2
    assert g.apply_case2(4, 5, None) == 2
    assert g.apply_case2(0, 2, None) == 4
    assert g.apply_case2(4, 0, None) == 6   # 3 + 4 -> additivity
    with pytest.raises(ContractViolation):
        g.apply_case2(1, 3, None)            # same component now
    g.apply_case1(9, None)
    with pytest.raises(ContractViolation):
        g.apply_case2(9, 8, None)            # black endpoint


def test_beta_and_histogram():
    g = DecodeGraph(10, track_values=False)
    assert g.beta() == 0.0
    for i in range(5):
        g.apply_case1(i, None)
    assert g.beta() == 0.5
    assert g.component_histogram() == {1: 5}


def test_component_histogram_leaves_the_union_find_untouched():
    g = DecodeGraph(6, track_values=False)
    for a, b in ((0, 1), (2, 3), (1, 3)):
        g.apply_case2(a, b, None)
    assert g._parent == [-1, 0, 0, 2, -1, -1]    # node 3 still points at 2, not the root 0
    assert g.component_histogram() == {4: 1, 1: 2}
    assert g.largest_white_component() == 4
    assert g._parent == [-1, 0, 0, 2, -1, -1]


def test_largest_component_theta_k_past_transition():
    # 600 random degree-2 receptions at k=1000 lie past the c=1 transition
    rng = random.Random(7)
    g = DecodeGraph(1000, track_values=False)
    for _ in range(600):
        a, b = rng.sample(range(1000), 2)
        g.process(sym(a, b))
    assert g.largest_white_component() > 200


def test_component_size_is_each_white_nodes_component_along_a_walk():
    rng = random.Random(5)
    k = 60
    g = DecodeGraph(k, track_values=False)
    for n in range(300):
        # degree-2 build-up first, then degrees 1-4 peel the components
        degree = 2 if n < 100 else rng.randint(1, 4)
        g.process(sym(*rng.sample(range(k), degree)))
        sizes = {}
        for node in range(k):
            if g.color[node] or node in sizes:
                continue
            members, stack = {node}, [node]   # the component, through stored edges
            while stack:
                for nb, _ in g.adj[stack.pop()]:
                    if nb not in members:
                        members.add(nb)
                        stack.append(nb)
            for member in members:
                sizes[member] = len(members)
        assert all(g.component_size(node) == size for node, size in sizes.items())
        nodes_by_size = Counter(sizes.values())
        assert g.component_histogram() == {size: n // size for size, n in nodes_by_size.items()}


def check_invariants(g):
    whites = sum(1 for i in range(g.k) if not g.color[i])
    assert g.recovered_count + whites == g.k
    hist = g.component_histogram()
    assert sum(size * n for size, n in hist.items()) == whites
    if whites:
        assert g.largest_white_component() == max(hist)
    for node in range(g.k):
        for nb, _ in g.adj[node]:
            assert not g.color[node] and not g.color[nb]


def test_randomized_operations_preserve_invariants():
    # conservation + monotonicity fuzz across fresh graphs
    rng = random.Random(42)
    ops_left = 10_000
    while ops_left > 0:
        k = rng.randint(4, 60)
        g = DecodeGraph(k, track_values=False)
        prev = 0
        for _ in range(rng.randint(10, 120)):
            if ops_left <= 0:
                break
            ops_left -= 1
            deg = rng.choice((1, 1, 2, 2, 2, 3))
            indices = tuple(sorted(rng.sample(range(k), min(deg, k))))
            cls, newly = g.process(CodedSymbol(indices))
            if cls.case is Case.CASE1:
                assert len(newly) >= 1
            assert g.recovered_count >= prev
            prev = g.recovered_count
            if rng.random() < 0.1:
                check_invariants(g)
        check_invariants(g)


def test_xor_pipeline_end_to_end():
    # any admissible symbol sequence must emit the exact source payloads
    rng = random.Random(9)
    blk = SourceBlock.random(40, 8, rng)
    g = DecodeGraph(40)
    while not g.complete:
        deg = rng.choice((1, 2, 2, 3))
        indices = tuple(sorted(rng.sample(range(40), deg)))
        g.process(CodedSymbol(indices, blk.encode(indices)))
    assert list(g.values) == list(blk.symbols)


@pytest.mark.parametrize("sessions,max_k", [(300, 12)])
def test_peeling_matches_elimination_replay(sessions, max_k):
    rng = random.Random(1234)
    for _ in range(sessions):
        k = rng.randint(2, max_k)
        blk = SourceBlock.random(k, 2, rng)
        g = DecodeGraph(k)
        oracle = ReplayPeeler(k)
        for _ in range(rng.randint(5, 4 * k)):
            deg = min(k, rng.choice((1, 1, 2, 2, 2, 2, 3)))
            indices = tuple(sorted(rng.sample(range(k), deg)))
            payload = blk.encode(indices)
            g.process(CodedSymbol(indices, payload))
            oracle.offer(indices, int.from_bytes(payload, "big"))
            recovered = {i for i in range(k) if g.color[i]}
            assert recovered == set(oracle.known)
        for i in oracle.known:
            assert g.values[i] == blk.symbols[i]


def test_classification_frequencies_match_hypergeometric():
    rng = random.Random(77)
    k, r, n_draws = 60, 24, 20_000
    g = DecodeGraph(k, track_values=False)
    for i in range(r):
        g.apply_case1(i, None)
    for m in (2, 3, 5):
        p1, p2 = exact_case_probs(k, r, m)
        c1 = c2 = 0
        for _ in range(n_draws):
            indices = tuple(sorted(rng.sample(range(k), m)))
            case = g.classify(CodedSymbol(indices)).case
            c1 += case is Case.CASE1
            c2 += case in (Case.CASE2, Case.CYCLE)
        for freq, p in ((c1 / n_draws, p1), (c2 / n_draws, p2)):
            sigma = (p * (1 - p) / n_draws) ** 0.5
            assert abs(freq - p) <= 3 * sigma, (m, freq, p)


def test_counting_mode_classification_matches_full_mode():
    rng = random.Random(5)
    blk = SourceBlock.random(20, 4, rng)
    full = DecodeGraph(20)
    bare = DecodeGraph(20, track_values=False)
    for _ in range(80):
        indices = tuple(sorted(rng.sample(range(20), rng.choice((1, 2, 2, 3)))))
        cf, _ = full.process(CodedSymbol(indices, blk.encode(indices)))
        cb, _ = bare.process(CodedSymbol(indices))
        assert cf.case is cb.case
        assert full.recovered_count == bare.recovered_count


@pytest.mark.parametrize("size", [1, 7, 64, 1024])
def test_encode_equals_chained_xor_bytes(size):
    rng = random.Random(size)
    k = 40
    payloads = [rng.randbytes(size) for _ in range(k)]
    payloads[0] = bytes(size)                              # all zero
    payloads[1] = bytes(size - 1) + b"\x01"                # leading zero bytes
    payloads[2] = payloads[3]                              # XOR to all zero
    blk = SourceBlock(k, tuple(payloads))
    picks = [(0, 1), (2, 3), (0, 2, 3), (1,), (0,)]
    picks += [tuple(sorted(rng.sample(range(k), rng.randint(1, 20)))) for _ in range(200)]
    for t in picks:
        want = payloads[t[0]]
        for i in t[1:]:
            want = xor_bytes(want, payloads[i])
        got = blk.encode(t)
        assert type(got) is bytes and got == want


def test_encode_degree_one_returns_the_source_payload():
    blk = SourceBlock.random(6, 16, random.Random(4))
    for i in range(6):
        assert blk.encode((i,)) is blk.symbols[i]


def test_source_block_int_table_is_outside_eq_hash_and_repr():
    payloads = tuple(random.Random(8).randbytes(3) for _ in range(4))
    a, b = SourceBlock(4, payloads), SourceBlock(4, tuple(bytes(p) for p in payloads))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"SourceBlock(k=4, symbols={payloads!r})"
    assert a._ints == tuple(int.from_bytes(p, "big") for p in payloads)


def test_counting_mode_block_holds_no_int_table():
    blk = SourceBlock(5, (b"",) * 5)
    assert blk._ints == ()
    assert blk.encode((0, 3)) == b"" and blk.encode((2,)) == b""


def test_xor_bytes_rejects_length_mismatch():
    with pytest.raises(ValueError, match="payload length mismatch: 2 vs 3"):
        xor_bytes(b"ab", b"abc")


@pytest.mark.parametrize("size", [0, 1, 64, 255, 256, 257, 1024, 65535])
def test_xor_bytes_matches_bytewise_reference(size):
    rng = random.Random(size)
    r1, r2 = rng.randbytes(size), rng.randbytes(size)
    leading_zeros = bytes(size // 2) + rng.randbytes(size - size // 2)
    pairs = [
        (bytes(size), bytes(size)),
        (bytes(size), r1),
        (leading_zeros, r1),
        (leading_zeros, leading_zeros),
        (r1, r1),
        (r1, r2),
    ]
    for a, b in pairs:
        got = xor_bytes(a, b)
        assert type(got) is bytes
        assert got == bytes(x ^ y for x, y in zip(a, b))


def test_xor_bytes_length_mismatch_message_on_both_sides_of_the_cutoff():
    for a, b in [(bytes(300), bytes(301)), (bytes(301), bytes(300)), (bytes(10), bytes(300))]:
        with pytest.raises(ValueError, match=f"^payload length mismatch: {len(a)} vs {len(b)}$"):
            xor_bytes(a, b)


def _reduction_case(k, size, recovered, unknowns, seed):
    """A graph with ``recovered`` seeded black nodes and a symbol over all of
    them plus ``unknowns`` (1 or 2) white nodes in distinct components."""
    rng = random.Random(seed)
    g = DecodeGraph(k)
    nodes = rng.sample(range(k), k)
    black, white = sorted(nodes[:recovered]), nodes[recovered:]
    for i in black:
        g.apply_case1(i, rng.randbytes(size))
    if len(white) >= 3:   # the first unknown sits in a white component of two
        g.apply_case2(white[0], white[2], rng.randbytes(size))
    return g, CodedSymbol(tuple(sorted(black + white[:unknowns])), rng.randbytes(size))


@pytest.mark.parametrize("size", [16, 1024])
@pytest.mark.parametrize("recovered", [2, 3, 64, 79])
def test_classify_xor_length_mismatch_names_the_first_bad_constituent(size, recovered):
    for unknowns in (1, 2):
        g, s = _reduction_case(80, size, min(recovered, 80 - unknowns), unknowns, seed=size + recovered)
        black = [i for i in s.indices if g.color[i]]
        good = list(g.values)
        g.values[black[-1]] = bytes(size + 2)
        g.values[black[1]] = bytes(size + 1)           # the first wrong length in index order
        with pytest.raises(ValueError, match=f"^payload length mismatch: {size} vs {size + 1}$"):
            g.classify(s)
        if len(black) > 2:
            g.values[black[-1]] = None                  # after the wrong length: still ValueError
            with pytest.raises(ValueError, match=f"^payload length mismatch: {size} vs {size + 1}$"):
                g.classify(s)
        g.values[black[0]] = None                       # before it: the loop's TypeError
        with pytest.raises(TypeError, match="^object of type 'NoneType' has no len\\(\\)$"):
            g.classify(s)
        g.values[:] = good
        wrong_payload = CodedSymbol(s.indices, bytes(size + 3))
        with pytest.raises(ValueError, match=f"^payload length mismatch: {size + 3} vs {size}$"):
            g.classify(wrong_payload)


def _classify_against_chained_xor(g, s):
    """``classify`` equals the chained-``xor_bytes`` residual and changes no state."""
    want = s.payload
    for i in s.indices:
        if g.color[i]:
            want = xor_bytes(want, g.values[i])
    state = (bytes(g.color), list(g.values), [list(a) for a in g.adj], list(g._size))
    roots = [g.find(i) for i in range(g.k)]
    unknowns = sum(not g.color[i] for i in s.indices)
    got = g.classify(s)
    assert got.case is (Case.CASE1 if unknowns == 1 else Case.CASE2)
    residual = got.value if got.case is Case.CASE1 else got.xor
    assert type(residual) is bytes and residual == want
    assert (bytes(g.color), list(g.values), [list(a) for a in g.adj], list(g._size)) == state
    assert [g.find(i) for i in range(g.k)] == roots


@pytest.mark.parametrize("size", [0, 1, 3, 16, 64, 255, 256, 1024, 4099])
def test_classify_batched_xor_equals_chained_xor_bytes(size):
    k, cut = 80, graph._REDUCE_XOR_MIN
    for recovered in (0, 1, 2, cut - 1, cut, cut + 1, 64, k - 1):
        for unknowns in (1, 2):
            g, s = _reduction_case(k, size, min(recovered, k - unknowns), unknowns, seed=size * recovered)
            _classify_against_chained_xor(g, s)


def test_classify_xor_folds_runs_over_the_byte_budget(monkeypatch):
    k, size = 600, 4099
    assert (k - 1) * size > graph._REDUCE_XOR_BYTES   # three passes at the real budget
    for budget in (graph._REDUCE_XOR_BYTES, 1, 3 * size, 5 * size + 1):
        monkeypatch.setattr(graph, "_REDUCE_XOR_BYTES", budget)
        for unknowns in (1, 2):
            g, s = _reduction_case(k, size, k - unknowns, unknowns, seed=budget + unknowns)
            _classify_against_chained_xor(g, s)


def test_classify_xor_calls_per_constituent_below_the_cutoff_none_from_it(monkeypatch):
    cut = graph._REDUCE_XOR_MIN
    calls = []

    def counting_xor(a, b):
        calls.append(1)
        return xor_bytes(a, b)

    monkeypatch.setattr("fountain_lab.graph.xor_bytes", counting_xor)
    for recovered, want in ((1, 1), (cut - 1, cut - 1), (cut, 0), (cut + 1, 0), (64, 0)):
        for size in (16, 1024):
            for unknowns in (1, 2):
                g, s = _reduction_case(80, size, recovered, unknowns, seed=recovered)
                calls.clear()
                g.classify(s)
                assert len(calls) == want


@pytest.mark.parametrize("size", [16, 1024])
@pytest.mark.parametrize("recovered", [1, graph._REDUCE_XOR_MIN - 1, graph._REDUCE_XOR_MIN])
@pytest.mark.parametrize("unknowns", [1, 2])
def test_wrong_length_payload_with_recovered_constituents_is_malformed_before_any_xor(
        monkeypatch, size, recovered, unknowns):
    g, s = _reduction_case(40, size, recovered, unknowns, seed=size + recovered)
    twin, twin_s = _reduction_case(40, size, recovered, unknowns, seed=size + recovered)
    assert twin_s == s and sum(g.color[i] for i in s.indices) == recovered
    xors, reduce = [], graph._xor_reduce

    def counting_xor(a, b):
        xors.append(1)
        return xor_bytes(a, b)

    def counting_reduce(*args, **kwargs):
        xors.append(1)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(graph, "xor_bytes", counting_xor)
    monkeypatch.setattr(graph, "_xor_reduce", counting_reduce)

    def state(x):
        return (bytes(x.color), list(x.values), [list(a) for a in x.adj], list(x._size),
                x.recovered_count, x._payload_len)

    before = state(g)
    for length in (0, size - 1, size + 1, 2 * size):
        with pytest.raises(ValueError) as info:
            g.process(CodedSymbol(s.indices, bytes(length)))
        assert type(info.value) is MalformedSymbol
        assert str(info.value) == f"payload length mismatch: {length} vs {size}"
        assert state(g) == before
    assert xors == []
    # the next valid symbol decodes as on a graph that never saw the bad ones
    assert g.process(s) == twin.process(s)
    assert state(g) == state(twin)


def test_source_block_validation():
    with pytest.raises(ValueError, match="need k >= 2 source symbols, got 1"):
        SourceBlock(1, (b"a",))
    with pytest.raises(ValueError, match="symbol count does not match k"):
        SourceBlock(3, (b"a", b"b"))
    with pytest.raises(ValueError, match=r"payloads must share one length, got \[1, 2\]"):
        SourceBlock(2, (b"a", b"bc"))


def _twin_step(g, s):
    """``process`` spelled out as its documented steps."""
    cls = g.classify(s)
    if cls.case is Case.CASE1:
        return cls, g.apply_case1(cls.target, cls.value)
    if cls.case is Case.CASE2:
        g.apply_case2(cls.a, cls.b, cls.xor)
    return cls, []


@pytest.mark.parametrize("full", [False, True], ids=["counting", "full"])
@pytest.mark.parametrize("k,n_symbols", [(50, 400), (1000, 1500)])
def test_process_equals_classify_then_apply(k, n_symbols, full):
    rng = random.Random(k + full)
    blk = SourceBlock.random(k, 8, random.Random(k)) if full else None
    g = DecodeGraph(k, track_values=full)
    twin = DecodeGraph(k, track_values=full)
    seen = set()
    for n in range(n_symbols):
        # a degree-2 build-up grows components until edges close cycles; then
        # degrees 1-6 peel them
        degree = 2 if n < n_symbols // 2 else rng.randint(1, 6)
        indices = tuple(sorted(rng.sample(range(k), degree)))
        s = CodedSymbol(indices, blk.encode(indices) if full else None)
        got = g.process(s)
        want = _twin_step(twin, s)
        assert got == want
        cls = got[0]
        seen.add(cls.case)
        # a classification equals the keyword-built one, field by field
        assert type(cls) is Classification
        by_keyword = Classification(**cls._asdict())
        for name in Classification._fields:
            assert getattr(cls, name) == getattr(by_keyword, name)
            assert type(getattr(cls, name)) is type(getattr(by_keyword, name))
        assert g.color == twin.color
        assert g.values == twin.values
        assert g.recovered_count == twin.recovered_count
        assert g.largest_white_component() == twin.largest_white_component()
        assert g.component_histogram() == twin.component_histogram()
    assert seen == set(Case)


def test_counting_graph_fed_payload_symbols_peels_with_none_values():
    g = DecodeGraph(8, track_values=False)
    for a, b in ((0, 1), (1, 2), (1, 3), (3, 4), (6, 7)):
        cls, newly = g.process(sym(a, b, payload=b"\x11\x22"))
        assert cls.case is Case.CASE2 and newly == []
    cls, newly = g.process(sym(0, payload=b"\x33\x44"))
    assert cls.case is Case.CASE1
    assert newly == [(0, None), (1, None), (3, None), (4, None), (2, None)]
    assert g.values == [None] * 8
    assert all(not g.adj[node] for node, _ in newly)
    assert g.recovered_count == 5


def test_counting_and_full_graphs_recover_nodes_in_the_same_order():
    rng = random.Random(11)
    k = 60
    blk = SourceBlock.random(k, 8, rng)
    full = DecodeGraph(k)
    bare = DecodeGraph(k, track_values=False)
    bare_fed_payloads = DecodeGraph(k, track_values=False)
    for _ in range(400):
        indices = tuple(sorted(rng.sample(range(k), rng.choice((1, 2, 2, 2, 3, 9)))))
        payload = blk.encode(indices)
        _, got_full = full.process(CodedSymbol(indices, payload))
        _, got_bare = bare.process(CodedSymbol(indices))
        _, got_fed = bare_fed_payloads.process(CodedSymbol(indices, payload))
        nodes = [node for node, _ in got_full]
        assert [node for node, _ in got_bare] == nodes
        assert got_fed == got_bare == [(node, None) for node in nodes]
    assert full.complete and bare.complete
    assert bare.values == bare_fed_payloads.values == [None] * k


def test_value_tracking_graph_rejects_a_payloadless_symbol():
    g = DecodeGraph(4)
    with pytest.raises(MalformedSymbol, match=r"^symbol over unknown nodes \[0\] brings no payload$"):
        g.process(CodedSymbol((0,), None))
    with pytest.raises(MalformedSymbol, match=r"\[2, 3\] brings no payload"):
        g.process(CodedSymbol((2, 3), None))
    assert g.recovered_count == 0 and g.values == [None] * 4 and not any(g.adj)
    # the symbol after it decodes as if the bad one never came
    assert g.process(CodedSymbol((0,), b"ab"))[1] == [(0, b"ab")]
    assert g.process(CodedSymbol((0, 1), b"\x00\x01"))[1] == [(1, b"ac")]
    with pytest.raises(MalformedSymbol, match="brings no payload"):   # with recovered constituents too
        g.process(CodedSymbol((0, 2), None))
    assert g.values == [b"ab", b"ac", None, None]


def test_value_tracking_graph_rejects_a_payload_of_another_length():
    g = DecodeGraph(4)
    g.process(CodedSymbol((0,), b"ab"))
    for s in (CodedSymbol((1,), b"abc"), CodedSymbol((1, 2), b"a")):
        with pytest.raises(MalformedSymbol, match=f"^payload length {len(s.payload)}, not the stored 2$"):
            g.process(s)
    assert g.recovered_count == 1 and g.values[1:] == [None] * 3 and not any(g.adj)
    # an edge label is a stored payload as well
    g = DecodeGraph(4)
    g.process(CodedSymbol((0, 1), b"ab"))
    with pytest.raises(MalformedSymbol, match="^payload length 1, not the stored 2$"):
        g.process(CodedSymbol((2,), b"a"))
    # a symbol with recovered constituents keeps the XOR path's message
    g.process(CodedSymbol((2,), b"cd"))
    with pytest.raises(ValueError, match="^payload length mismatch: 3 vs 2$"):
        g.process(CodedSymbol((2, 3), b"abc"))


def test_memory_fresh_graph_holds_at_most_40_bytes_per_node():
    k = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = DecodeGraph(k, track_values=False)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.find(k - 1) == k - 1
    assert held / k <= 40, held / k


def test_memory_a_node_holds_an_edge_list_only_while_it_has_edges():
    g = DecodeGraph(1000, track_values=False)
    for a, b in ((0, 1), (1, 2), (5, 6)):
        g.apply_case2(a, b, None)
    lists = [node for node in range(g.k) if type(g.adj[node]) is list]
    assert lists == [0, 1, 2, 5, 6]
    g.apply_case1(1, None)   # peels 0, 1 and 2
    assert [node for node in range(g.k) if type(g.adj[node]) is list] == [5, 6]
    assert all(g.adj[node] is g.adj[999] for node in (0, 1, 2, 3, 4))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        DecodeGraph(10_000, track_values=False).apply_case2(3, 7, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / 10_000 <= 40, peak / 10_000


def test_union_find_compresses_paths_to_the_root():
    g = DecodeGraph(6, track_values=False)
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (4, 0)):
        g.apply_case2(a, b, None)
    root = g.find(3)
    assert [g.find(i) for i in range(6)] == [root] * 6
    assert g._size[root] == 6
    assert all(g._parent[i] == root for i in range(6) if i != root) and g._parent[root] == -1
