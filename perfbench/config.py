"""Fixed settings of the benchmark workloads.

Every value here is part of the benchmark's definition: a change that
claims a gain must not edit this file (see README.md).  The offered rate
and latency limit of ``served_open`` were chosen from the capacity
measurement recorded next to them.
"""

#: dense feature width of every right-hand side B
N = 64

#: right-hand sides per graph whose references are precomputed before
#: timing; each request uses a fresh copy of one of them
B_POOL = 4

# ---------------------------------------------------------------- gnn_steady
#: Table-2 twins planned once in set-up and multiplied every step
GNN_GRAPHS = ("DD", "rCA")
#: times the set-up (plan + prepare both graphs) is repeated; the median
#: is reported, so no setup_s value rests on a single plan build
GNN_SETUP_REPS = 2
#: per-step latency limit behind slo_met_share, ms
GNN_SLO_MS = 150.0

# ---------------------------------------------------------------- cold_churn
#: graph families of the distinct-graph stream
CHURN_FAMILIES = ("band", "road", "molecular", "uniform", "web")
#: row count of graphs built during the timed stream (one size, so
#: every build is the same amount of reorder work whatever the family)
CHURN_BUILD_ROWS = 2048
#: row counts (cycled) of the graphs the untimed writer process stores
#: before set-up: warm-started, then evicted and recurring from the store
CHURN_STORED_ROWS = (4096, 6144, 8192)
#: number of graphs the writer process stores: more than the
#: CHURN_CAPACITY + 2 most recent graphs, so every recurrence finds a
#: stored graph that has been evicted
CHURN_STORED = 12
#: in-memory plan slots of the engine: below the distinct-graph count
CHURN_CAPACITY = 6
#: the stream repeats blocks of this many requests: one new graph (a
#: full plan build), CHURN_NEAR_REUSE near reuses (cache hits), the
#: rest recurrences of evicted graphs (store hits), in a seeded order
#: within the block.  The 1 : 5 : 24 ratio is a synthetic assumption,
#: not taken from a measured workload; each kind's share and latency
#: are reported as per-layer metrics (mix.share.<kind>,
#: mix.latency_ms_p50.<kind>).  Builds are a thirtieth of the requests
#: and about two fifths of the stream's time: a build's reorder is
#: interpreter-bound and moves about 1.4x with the host's speed, a
#: store hit about 1.15x, so a stream whose percentiles sat on builds
#: spread past its bounds from run to run (see README.md)
CHURN_BLOCK = 30
CHURN_NEAR_REUSE = 5
#: set-up is CHURN_SETUP_REPS groups of CHURN_SETUP_LOADS warm_start()
#: calls, each on a fresh engine; setup_s is the median over the groups
#: of a group's mean time per warm_start.  One warm_start takes 20-35
#: ms, and the host's speed flips between two levels about 1.6x apart
#: within a second or two, so one call, or the median of calls made
#: within one second, reads one level or the other; a group spans about
#: a second of host time and averages over the flips
CHURN_SETUP_REPS = 5
CHURN_SETUP_LOADS = 30
#: per-request latency limit behind slo_met_share, ms: above twice a
#: 2048-row build on the reference host, so a healthy run meets it
CHURN_SLO_MS = 1500.0

# --------------------------------------------------------------- served_open
#: hot graphs served at the exact tier (pre-submitted in set-up): two
#: Table-2 twins and one generated graph, named in SERVED_GENERATED
SERVED_HOT = ("DD", "rPA", "mol4k")
SERVED_GENERATED = {"mol4k": ("molecular", 4096)}
#: type-2 social twin served at the fast tier (micro-batched)
SERVED_FAST = "FY-RSR"
#: hot graph that receives structural edits (delta + multiply).  Every
#: edit derives a new cached plan, so the base is a small graph: the
#: derived plans of a run then fit the server's cache beside the hot set
SERVED_DELTA_BASE = "mol4k"
#: edges added and removed by one delta request
SERVED_DELTA_EDGES = 8
#: offered rate of the open-loop arrival schedule, requests/s.  Chosen
#: from a capacity measurement on a 2-CPU host: this mix sent at 40/s
#: over the two connections completed 22.1 requests/s with a growing
#: backlog (generator lateness p90 7.4 s, so that run was reported
#: invalid); at 6.5/s the median latencies were mol4k 23 ms, delta
#: 39 ms, DD 57 ms, rPA 91 ms and fast-tier FY-RSR 203 ms.  6.5/s keeps
#: the server under a third busy, so latency reflects service time more
#: than queueing (which amplifies the host's speed drift), and a 22 s
#: run holds 144 requests
SERVED_RATE = 6.5
#: request mix: exact share of each kind — exact-tier multiplies per
#: hot graph, fast-tier multiplies on SERVED_FAST (arriving in pairs so
#: same-fingerprint requests can share a micro-batch) and deltas.  Equal
#: shares are a synthetic assumption (no measured traffic of this
#: program exists to copy); each kind's measured share and latency are
#: reported as per-layer metrics (mix.share.<kind>,
#: mix.latency_ms_p50.<kind>)
SERVED_MIX = {"DD": 0.20, "rPA": 0.20, "mol4k": 0.20, "fast": 0.20,
              "delta": 0.20}
#: client connections (one thread each)
SERVED_CONNECTIONS = 2
#: latency limit per request, measured from its due time, ms: about
#: twice the FY-RSR pairs' round trip, the slowest kind
SERVED_SLO_MS = 500.0
#: times the server is launched and made ready in set-up; the median is
#: reported and the last launch serves the run
SERVED_SETUP_REPS = 2
#: generator lateness (send time minus due time, so waiting for a free
#: connection counts) p90 beyond which a run is reported invalid, ms.
#: At the offered rate it reads about 20 ms; a backlog of half the
#: latency limit means the connections no longer keep up with the
#: schedule, and the run measures the client's queue
SERVED_MAX_LATE_MS = 250.0
#: server command-line settings
SERVED_SERVER_ARGS = ("--shards", "1", "--capacity", "48",
                      "--batch-window", "0.005")
