#!/usr/bin/env bash
# Tier-1 gate: byte-compile everything, then run the full test suite.
# This is what CI runs; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# dump all thread stacks if any single test exceeds this budget — a
# wedged pool/supervisor should fail loudly, not hang the gate
export REPRO_FAULTHANDLER_TIMEOUT="${REPRO_FAULTHANDLER_TIMEOUT:-300}"

# hard wall-clock ceiling on the chaos suite (it kills real worker
# processes; a supervisor bug could otherwise wedge the whole gate)
with_timeout() {
    if command -v timeout >/dev/null 2>&1; then
        timeout --kill-after=30 "${CHAOS_TIMEOUT:-1200}" "$@"
    else
        "$@"
    fi
}

echo "== compileall =="
python -m compileall -q src benchmarks tools examples

echo "== one record codec =="
# repro.dfs.jsonlines owns the JSON-lines codec (encode_record /
# decode_line / decode_lines); a second spelling of it anywhere else is
# a second format waiting to drift. world/io.py is exempt: it dumps one
# gzip'd world document with insertion-ordered keys, not landed records.
if grep -rnF --include='*.py' -e 'separators=(",", ":")' -e 'json.loads(line' \
        src/repro | grep -v -e '^src/repro/dfs/jsonlines\.py:' \
                            -e '^src/repro/world/io\.py:'; then
    echo "per-record JSON codec outside src/repro/dfs/jsonlines.py" >&2
    exit 1
fi

echo "== one durable kernel =="
# repro.durable owns the state the continuous tiers recover after a crash
# (EventLog records and checkpoints, LeaseTable leases, read_doc /
# write_doc); a module that decodes its own state file again, or spells
# its own lease or manifest write, is a second copy of the kernel
if grep -nF -e 'json.loads(self.dfs.read_text(' -e 'MANIFEST' \
        -e 'manifest_path' -e '_lease_path(' -e 'to_json()' \
        src/repro/crawl/ledger.py src/repro/dfs/upsert.py \
        src/repro/serve/outbox.py src/repro/serve/subscriptions.py \
        src/repro/engine/checkpoint.py; then
    echo "durable state handled outside src/repro/durable.py" >&2
    exit 1
fi

echo "== one follow-index layout =="
# repro.serve.dataset.FollowIndex owns the follow graph's layout (sorted
# user ids, two CSR graphs of followed startups and users, sorted count
# keys); a serve module that builds (dst_type, dst_id) tuples again, or
# reads the index's arrays, is a second layout waiting to drift
if grep -rnE --include='*.py' -e 'dst_type, dst_id' \
        -e '\("(user|startup)", ' -e 'follower_counts' \
        -e '\._(users|startups|followed|count_keys)\b' \
        src/repro/serve | grep -v '^src/repro/serve/dataset\.py:'; then
    echo "follow-index layout handled outside src/repro/serve/dataset.py" >&2
    exit 1
fi

echo "== one sorted adjacency =="
# repro.graph.csr.CSR is the one sorted-adjacency type: the world's
# follow graphs, the investment graph (which CoDA and the SBM read as
# arrays) and the serve follow index. A lexsorted column set or a
# hand-kept row-start array in the serve tier, an id -> position dict in
# the community models, or a dict of sets in the graph package is a
# second copy of it
if grep -rnE --include='*.py' -e 'np\.lexsort|_row_starts' src/repro/serve \
    || grep -rnE --include='*.py' \
        -e 'enumerate\(([a-z_]+\.)?(investor|company)_ids\)' \
        src/repro/community \
    || grep -rnE --include='*.py' -e 'setdefault\(.*set\(\)\)' \
        src/repro/graph; then
    echo "sorted adjacency kept outside src/repro/graph/csr.py" >&2
    exit 1
fi

echo "== one world adjacency =="
# the world's FollowGraph (two repro.graph.csr.CSR graphs) is the one
# copy of the follow edges; a source or crawler that reads User follow
# lists or builds the company-follower dict again holds a second copy
if grep -rnE --include='*.py' \
        -e 'company_followers\(|follows_companies|follows_users' \
        src/repro/sources src/repro/crawl; then
    echo "follow lists read outside the world's CSR graph" >&2
    exit 1
fi

echo "== one request ladder =="
# QueryService.execute owns steps 1-4 of a request (fresh cache, deadline
# gate, breaker, injected faults); the sharded tier overrides only the
# gate's estimate and the step-5 answer, so none of those steps may be
# spelled again in serve/sharding.py
if grep -nF -e 'lookup_fresh(' -e 'try_acquire(' -e 'serve_fault_at(' \
        src/repro/serve/sharding.py; then
    echo "request ladder copied into src/repro/serve/sharding.py" >&2
    exit 1
fi

echo "== engine reads its own context =="
# every RDD's context is a SparkLiteContext: its settings are plain
# attribute reads, never sniffed with a fallback default
if grep -nF -e 'getattr(self.context' -e 'getattr(context' \
        src/repro/engine/rdd.py; then
    echo "context attribute sniffed in src/repro/engine/rdd.py" >&2
    exit 1
fi

echo "== pytest (tier 1) =="
python -m pytest -x -q "$@"

echo "== pytest (chaos suite) =="
# the deterministic fault-injection harness, on its default seed matrix
with_timeout python -m pytest -x -q -m chaos

echo "== benchmark smoke (engine fast path) =="
# small-scale A4 run: proves the combine reduction holds, gates what the
# exchange costs by count (<= one hash per distinct key per map chunk,
# sizing pickles only the stride sample of each piece; serial arm, full
# 60k rows) and leaves the BENCH_engine.json perf-trajectory artifact
python benchmarks/bench_a4_shuffle_combine.py \
    --smoke --json benchmarks/out/BENCH_engine.json

echo "== counted cost gates (pipeline hot paths) =="
# the same kind of gate as A4's shuffle_cost and A8's
# landing_reads_per_day, for the pipeline: investor_activity streams
# follow edges through its filter (no scan stage, no cache spill), a
# request is matched only against templates of its own shape, and
# encode_record builds no encoder per record; and for the ingest day:
# draws per raising company, no walk of the world per closed round, of
# the file table per listdir or of the frontier per claimed slice. With
# them the identities those gates lean on — WorldDynamics.step against
# the sequential loop, the DFS namespace index against a scan of the
# file table. For the community study: a CoDA sweep's Python calls do
# not grow with the graph and the Figure 4 sample calls no randrange,
# held with the array CoDA against the row loop it replaced. For the
# durable kernel: an apply writes one small log record whatever came
# before it, and no handle reads back the log records or leases it wrote
# itself, held with the kernel's differentials (cached handles against
# fresh replays and against the MANIFEST.json layout they replaced).
# For the serve build: the follow index holds at most 10 (and 17) bytes
# an edge (every array's nbytes), ServeDataset.build's tracemalloc peak stays
# under a bound the two-dict fold failed, held with the index against
# that fold (rows, counts, traversals and every shard split). For the
# world: both follow graphs hold at most 16 bytes an edge forward and
# inverse, and generating them makes one lookup and no np.unique, held
# with the CSR graphs against the per-user list loop they replaced. The
# investment graph on CSR is held against the dict of sets it replaced
# (CoDA F and H bit for bit, label propagation, SBM groups). And
# the knob ratchets: PlatformConfig fields and SparkLiteContext parameters
# (test_knob_ratchet) and the CLI's distinct options
# (test_cli_option_ratchet) may not grow.
# Part of tier 1 above; run by name so a renamed or deselected module
# fails the gate
python -m pytest -q -p no:cacheprovider tests/test_cost_gates.py \
    tests/test_world_dynamics_differential.py tests/test_dfs_namespace_ops.py \
    tests/test_community_coda_differential.py tests/test_durable.py \
    tests/test_serve_follow_index.py tests/test_world_follows_differential.py \
    tests/test_graph_bipartite_differential.py

echo "== benchmark smoke (partition recovery) =="
# small-scale A5 run: proves losing an executor recomputes strictly
# fewer partitions than a full stage rerun, on every backend
with_timeout python benchmarks/bench_a5_recovery.py \
    --smoke --json benchmarks/out/BENCH_recovery.json

echo "== benchmark smoke (serving overload) =="
# A6: 10x overload with a forced mid-run brownout and chaos faults —
# queue stays bounded, per-class p99 under deadline, >= 99% of admitted
# answered, same-seed reruns byte-identical
with_timeout python benchmarks/bench_a6_serving.py \
    --smoke --json benchmarks/out/BENCH_serving.json

echo "== benchmark smoke (columnar core) =="
# A7: row vs columnar engine on reduce/join/sort — byte-identical
# output, shm exchange accounting, zero leaked segments; the >= 2x
# process-vs-serial gate arms itself only on 4+-core hosts
with_timeout python benchmarks/bench_a7_columnar.py \
    --smoke --json benchmarks/out/BENCH_columnar.json

echo "== benchmark smoke (ingest kill-anywhere resume) =="
# A8: SIGKILL the continuous-ingest scheduler at every ledger state,
# resume from the write-ahead ledger — eventual datasets byte-identical
# to an uninterrupted run, zero duplicate lands, all leases reclaimed,
# incremental recompute bounded (each source record scanned once),
# landing cost flat in chain length (landing_reads_per_day: data-file
# reads and dataset-log bytes read/written per day over 64 days)
with_timeout python benchmarks/bench_a8_ingest.py \
    --smoke --json benchmarks/out/BENCH_ingest.json

echo "== benchmark smoke (adaptive planner) =="
# A9: adaptive planning vs the naive plans — the skewed join must move
# >= 2x fewer shuffled bytes on all three backends, skew split /
# coalesce / scan pushdown must fire, every arm byte-identical
with_timeout python benchmarks/bench_a9_planner.py \
    --smoke --json benchmarks/out/BENCH_planner.json

echo "== benchmark smoke (sharded serving) =="
# A10: serve_shard_chaos kills one shard of four mid-run — >= 99% of
# admitted queries still answer inside their deadline, every partial
# result's coverage accounting is exact vs the unsharded oracle, an
# abusive tenant at 10x its fair share starves nobody, and the whole
# run (autoscaler decisions included) is byte-identical on a same-seed
# rerun
with_timeout python benchmarks/bench_a10_sharding.py \
    --smoke --json benchmarks/out/BENCH_sharding.json

echo "== benchmark smoke (standing-query alerting) =="
# A11: alert-chaos (kill_subscriber / drop_ack / dup_deliver plus a
# forced mid-run ingest kill) — every matched event delivered
# at-least-once with zero observable duplicates after dedupe vs the
# offline full-rescan oracle, 100x subscriber load leaves interactive
# p99 inside its deadline with zero cross-tenant starvation, poison
# subscribers quarantine without stalling the outbox, and same-seed
# reruns (delivery log included) are byte-identical
with_timeout python benchmarks/bench_a11_alerting.py \
    --smoke --json benchmarks/out/BENCH_alerting.json

echo "== e2e benchmark harness (smoke) =="
# the repo benchmark (BENCHMARK.json) at --smoke sizes, about a minute:
# a change under src/ that breaks a workload's output check — sharded
# answers vs the unsharded dataset, digests, failed/attempted — fails
# here, before the benchmark driver ever runs
with_timeout python -m pytest -q -p no:cacheprovider \
    benchmarks/e2e/test_bench_e2e.py

echo "== verify benchmark artifacts =="
# a bench that silently wrote nothing must fail the gate here, not
# vanish from the merged summary
expected_artifacts=(
    BENCH_engine.json BENCH_recovery.json BENCH_serving.json
    BENCH_columnar.json BENCH_ingest.json BENCH_planner.json
    BENCH_sharding.json BENCH_alerting.json
)
missing=0
for artifact in "${expected_artifacts[@]}"; do
    if [ ! -s "benchmarks/out/$artifact" ]; then
        echo "MISSING benchmark artifact: benchmarks/out/$artifact" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "refusing to merge an incomplete artifact set" >&2
    exit 1
fi

echo "== merge benchmark artifacts =="
# fold every BENCH_*.json into the single BENCH_summary.json artifact
python tools/merge_bench.py --out benchmarks/out/BENCH_summary.json
