"""Wrong-path instruction synthesis."""

from repro.engine import RunSpec
from repro.isa.instruction import StaticInst
from repro.isa.opclass import OpClass
from repro.workloads.wrongpath import WrongPathGenerator, _build_pool


class TestWrongPathGenerator:
    def test_block_size(self):
        gen = WrongPathGenerator(seed=1)
        assert len(gen.next_block(16)) == 16

    def test_deterministic_in_seed(self):
        a = WrongPathGenerator(seed=5).next_block(64)
        b = WrongPathGenerator(seed=5).next_block(64)
        assert [(i.op, i.addr, i.dest) for i in a] == [
            (i.op, i.addr, i.dest) for i in b
        ]

    def test_no_branches(self):
        # the mispredicted branch pins recovery; wrong paths don't branch
        insts = WrongPathGenerator(seed=2).next_block(400)
        assert not any(i.op == OpClass.BRANCH for i in insts)

    def test_no_stores(self):
        insts = WrongPathGenerator(seed=2).next_block(400)
        assert not any(i.is_store for i in insts)

    def test_contains_loads_that_touch_memory(self):
        insts = WrongPathGenerator(seed=3).next_block(400)
        loads = [i for i in insts if i.is_load]
        assert loads
        assert all(i.addr > 0 and i.addr % 8 == 0 for i in loads)

    def test_load_addresses_near_hot_region(self):
        gen = WrongPathGenerator(seed=4)
        for i in gen.next_block(300):
            if i.is_load:
                assert gen.data_base <= i.addr < gen.data_base + gen.data_span

    def test_mix_roughly_matches_weights(self):
        insts = WrongPathGenerator(seed=6).next_block(2000)
        loads = sum(1 for i in insts if i.is_load)
        falu = sum(1 for i in insts if i.op == OpClass.FALU)
        assert 0.15 < loads / len(insts) < 0.45
        assert 0.20 < falu / len(insts) < 0.50


def _fields(insts) -> list[tuple]:
    """Every slot of every instruction, for field-for-field comparison."""
    return [tuple(getattr(i, s) for s in StaticInst.__slots__) for i in insts]


def _private(seed: int) -> WrongPathGenerator:
    """A generator on its own pool object, built outside the memo."""
    gen = WrongPathGenerator(seed=seed)
    gen._pool = _build_pool.__wrapped__(seed, gen.data_base, gen.data_span)
    return gen


class TestSharedPool:
    """Pools are memoized per ``(seed, data_base, data_span)`` and shared;
    only the cursor is per generator."""

    def test_equal_keys_share_one_immutable_pool(self):
        a, b = WrongPathGenerator(seed=11), WrongPathGenerator(seed=11)
        a.next_block(1)
        b.next_block(1)
        assert a._pool is b._pool
        assert isinstance(a._pool, tuple)
        c = WrongPathGenerator(seed=11, data_span=4096)
        c.next_block(1)
        assert c._pool is not a._pool

    def test_interleaved_cursors_match_private_generators(self):
        shared = [WrongPathGenerator(seed=12), WrongPathGenerator(seed=12)]
        private = [_private(12), _private(12)]
        # block sizes that wrap the 4096-instruction pool, and a block
        # longer than a whole pool
        for n, which in [(16, 0), (5000, 1), (16, 1), (3000, 0), (9000, 0), (7, 1)]:
            got = shared[which].next_block(n)
            want = private[which].next_block(n)
            assert _fields(got) == _fields(want)
        assert shared[0]._pool is shared[1]._pool

    def test_cycle_run_mutates_no_shared_instruction(self):
        # sharing pools and traces across cells is sound only because
        # nothing in the pipeline ever writes to a StaticInst
        spec = RunSpec.multiprogrammed(
            2, l2_latency=64, commits_per_thread=3000, warmup_per_thread=300,
            scale=1.0,
        )
        proc, kw = spec.instantiate()
        gens = [ctx.wp_gen for ctx in proc.state.threads]
        pools = [_build_pool(g.seed, g.data_base, g.data_span) for g in gens]
        traces = [t for playlist in spec.playlists() for t in playlist]
        before = [_fields(p) for p in pools], [_fields(t) for t in traces]
        stats = proc.run(**kw)
        assert stats.fetched_wrong_path > 0
        assert all(g._pool is p for g, p in zip(gens, pools))
        assert ([_fields(p) for p in pools], [_fields(t) for t in traces]) == before

    def test_restored_snapshot_resumes_on_the_shared_pool(self):
        from repro.engine.snapshot import Snapshot

        spec = RunSpec.multiprogrammed(
            2, l2_latency=32, commits_per_thread=1000, warmup_per_thread=400,
            scale=1.0, seg_instrs=4000,
        )
        proc, kw = spec.instantiate()
        proc.run(max_commits=kw["warmup_commits"], max_cycles=None)
        twin = Snapshot.from_bytes(Snapshot.capture(proc, spec).to_bytes()).restore(spec)
        for ctx, live in zip(twin.state.threads, proc.state.threads):
            gen = ctx.wp_gen
            assert gen._pool is None and gen._pos == live.wp_gen._pos
            assert _fields(gen.next_block(64)) == _fields(live.wp_gen.next_block(64))
            assert gen._pool is _build_pool(gen.seed, gen.data_base, gen.data_span)
