// Command simbench is the repository's benchmark. It times the simulator
// itself (host time, not simulated time) on five workloads, checks that
// the simulated results are unchanged, and in a separate traced run
// splits each record's host time across the repository's modules.
// Every performance claim is measured with it in same-machine runs of
// the parent commit and the change; the BENCH_*.json files cmd/perf
// writes are a trajectory log measured elsewhere, not a baseline to beat.
//
// The simulated model itself is not validated against hardware here.
// The benchmark only requires simulated statistics to stay identical
// under a host-only change, which the digests below enforce.
//
// # Running
//
// run.sh builds the benchmark from source into .bench_build/ at the
// repository root (Go build cache included) and runs it:
//
//	bash simbench/run.sh --workload loop-uniform --seed 1 --seconds 18 --trace 0
//
// Flags:
//
//	-workload  one of the workloads below, or "all" (each in its own child
//	           process, so memory figures stay per workload)
//	-seed      feeds only the generated inputs; the same seed gives the same
//	           inputs and the same simulated statistics
//	-seconds   how long the measured rounds run (at least three rounds run)
//	-trace     0: end-to-end metrics; 1: the traced run and its per-layer
//	           metrics
//	-trace-dir where the traced run writes its files (default
//	           .bench_build/trace)
//	-quick     every workload at smoke-test scale
//
// The output is one "name value unit" line per metric, then "ops N" and
// "ops_failed N", then, as the last line, one JSON object with the keys
// correct, attempted, failed and metrics. Comment lines starting with #
// record the workload, seed, Go version, GOMAXPROCS and GOGC, which the
// benchmark leaves as it finds them, the quartiles of each scheme's
// normalised operation throughputs and of the reference kernel's speed,
// which show how steady the run and the machine were, and the throughput
// before normalisation (wall rps).
//
// # Load
//
// Everything runs in one process with at most two busy goroutines. The
// loop workloads drive one core.System at a time from the main goroutine.
// The sweep runs on two shards. The daemon serves two client connections,
// each a closed loop: a client sends its next request when the previous
// one has been answered.
//
// # Workloads
//
// Every workload runs all eight registered schemes (core.Modes()).
//
//	loop-uniform   The perf trajectory's geometry: 4 cores, 16 MB uniform
//	               footprint, a quarter on 2 MB pages, no spatial runs;
//	               200k-record windows. About 37% of records miss the L2
//	               TLB, so each scheme's miss path, the nested walker and the
//	               cache hierarchy do most of the work, and trace generation
//	               is cheap.
//	loop-zipf      Table 2's graph500 profile (Zipf skew 0.95, 256 MB,
//	               8-line runs), 4 cores, 250k-record windows. The SRAM TLBs
//	               absorb about 94% of records, so the generator's CDF search,
//	               the SRAM TLBs and data-cache fills dominate. A change to a
//	               scheme's miss path should not move this workload.
//	loop-consol    The consol-churn preset (120 tenant VMs) with 3
//	               working-set phases, 125k-record windows: shootdown
//	               storms every 20k records, process-exit flushes (full
//	               POM-TLB partition scans), tenant switches and per-tier
//	               accounting beside lookups. The heaviest memory: a
//	               10-second run at seed 42 read a 435 MiB live heap and a
//	               705 MiB peak resident set (354 and 529 MiB with 64
//	               tenants).
//	sweep-grid     One sweep.Run per scheme over gups, mcf and consol-smoke
//	               at pom-mb=8,16 (six cells) with experiments.QuickOptions
//	               (2 cores, 120k warm-up + 60k records), two shards, a
//	               fsynced journal and a streamed CSV in a fresh directory.
//	               Per-cell fixed costs (NewSystem, scenario build, warm-up,
//	               journal fsync, ordered CSV) weigh most here and
//	               steady-state loop gains least.
//	daemon-ingest  An in-process pomsimd (server.New defaults, httptest). Per
//	               scheme a fresh server and two connections, each owning a
//	               session (4 cores, 100k warm-up) and streaming 64
//	               pre-encoded 4096-record POMTRC01 chunks, then /finish,
//	               then waiting for the session to be done. The record loop
//	               behind HTTP decode, the per-record stream mutex, a
//	               snapshot every 2048 records and backpressure.
//
// A loop workload builds one system per scheme, warms each with 400k
// records, resets its statistics and collects garbage once. It then runs
// rounds of one window per scheme, without forcing collections between
// windows. Each round starts at the next scheme, so no scheme always runs
// after the same neighbour. The sweep and daemon workloads run rounds of
// one sweep, or one pair of sessions, per scheme in the same rotation.
//
// # Normalised time
//
// A 2-vCPU virtual machine that shares its host changes speed by up to a
// third over a few minutes, as other tenants load the caches and memory
// they share: two sets of ten runs of the same code once read 30% apart.
// Every unprofiled operation is therefore followed by one run of a fixed
// reference kernel (reference.go: 2M random read-modify-writes over an
// 8 MiB table, about 10 ms), and its throughput is multiplied by
// refNominal (2e8 steps/s) over the kernel's speed in that run. Loop and
// daemon set-up times are scaled the same way; a sweep's set-up is
// file-system work, which the kernel does not model, and is reported as
// measured. The figures are thus stated for a machine on which the kernel
// runs at 2e8 steps/s. Over ten minutes of alternating 100k-record windows
// and kernel runs, the median window throughput of 18-second stretches
// ranged over 30 to 38%, its ratio to the kernel run right after each
// window over 7 to 9%. A sweep or a session pair leaves garbage that a
// collection would mark beside the kernel, so those workloads collect it
// before each kernel run, and each sweep or pair starts from a clean heap.
// The measured figures stay in the traced run's wall.rps and
// ref.steps_per_s, and in the comment lines.
//
// # End-to-end metrics
//
// All are printed for every workload. A bound is the share by which a
// median may worsen before a run counts as a regression.
//
//	rps           rec/s  higher  0.21  geometric mean over schemes of each
//	                                   scheme's median normalised operation
//	                                   throughput (loop window, sweep,
//	                                   session pair), counting every
//	                                   simulated record
//	setup_s       s      lower   0.25  median set-up: one loop system's
//	                                   build and warm-up; one sweep's
//	                                   directory, journal and CSV; one
//	                                   pair's server start and session
//	                                   creation
//	heap_live_mb  MiB    lower   0.25  the largest heap a garbage collection
//	                                   found live, read after each operation
//	                                   of the first three rounds; it includes
//	                                   the kernel's 8 MiB
//
// # Measured spreads
//
// Two sets of ten 18-second runs of the same code, each run with its own
// seed (set A seeds 100-109, then set B seeds 200-209, every workload in
// turn), on a 2-vCPU Xeon virtual machine with Go 1.24. Spread is the
// distance between the first and third quartile over the median; "B
// worse" is how much set B's median is worse than set A's. wall rps is
// rps before normalisation, shown for comparison; it is not a metric.
//
//	workload       metric        median A  spread A  median B  spread B  B worse
//	loop-uniform   rps           1.593e6      1.6%   1.521e6      3.5%    4.5%
//	               setup_s       0.221 s     14.9%   0.243 s     17.0%   10.1%
//	               heap_live_mb  148.8        0.0%   148.8        0.1%    0.0%
//	               wall rps      1.513e6      5.3%   9.612e5      8.4%   36.5%
//	loop-zipf      rps           2.412e6      1.6%   2.472e6      3.5%   -2.5%
//	               setup_s       0.156 s      6.5%   0.163 s     14.6%    4.6%
//	               heap_live_mb  167.6        0.1%   167.7        0.3%    0.0%
//	               wall rps      2.236e6      4.6%   1.544e6      8.4%   31.0%
//	loop-consol    rps           1.487e6      1.9%   1.462e6      4.4%    1.7%
//	               setup_s       0.276 s      8.2%   0.260 s     18.1%   -5.8%
//	               heap_live_mb  437.9        6.4%   414.8        4.7%   -5.3%
//	               wall rps      1.348e6      5.3%   9.810e5     15.8%   27.2%
//	sweep-grid     rps           2.953e6      5.5%   3.043e6      6.9%   -3.1%
//	               setup_s       0.602 ms     7.1%   0.605 ms    21.9%    0.4%
//	               heap_live_mb  83.2         6.5%   83.4         5.6%    0.2%
//	               wall rps      2.303e6      8.8%   1.856e6     20.8%   19.4%
//	daemon-ingest  rps           2.907e6      5.2%   2.899e6      2.0%    0.3%
//	               setup_s       2.40 ms     14.1%   2.23 ms     11.5%   -7.2%
//	               heap_live_mb  97.2         0.0%   97.2         0.0%    0.0%
//	               wall rps      2.038e6      9.8%   1.773e6      6.8%   13.0%
//
// The machine ran 13 to 36% slower while set B ran than while set A did;
// normalised, the medians moved by 4.5% at most. The rps and heap_live_mb
// bounds are at least three times the largest spread the metric showed in
// these and earlier sets (rps 6.9%, on sweep-grid; heap_live_mb 7.2%, on
// loop-consol, where the tenants' working sets depend on the seed).
// Set-up times spread most, up to 22%, and setup_s has the widest bound,
// 0.25; its medians moved by 10% at most. Per-scheme throughputs spread more than their geometric mean
// (up to 15% on daemon-ingest and 20% on sweep-grid, with five to ten
// operations per scheme), so rps.<scheme> is a per-layer metric. So is
// peak resident memory (max_rss_mb), which read 48, 65 or 81 MiB across
// ten loop-uniform runs of the same code; the live heap repeats to a tenth
// of a percent where the input does not depend on the seed.
//
// # Correctness: what an operation is and when it fails
//
//   - Loop workloads: an operation is one window. At the end, each scheme's
//     snapshot must pass Result.CheckAccounting and hold exactly the
//     records of its windows. Where testdata/digests.json has the seed, the
//     digest of the scheme's first window must match it. The digest covers
//     Records, Insts, Cycles, PenaltyCycles, the L1 and L2 TLB counters,
//     the L2 and L3 cache counters, the off-chip DRAM counters and every
//     resolve level by name. Any failure fails all of the scheme's windows.
//   - sweep-grid: an operation is one cell. Quarantined or abandoned cells
//     fail, as does a cell whose Result fails CheckAccounting. Every sweep
//     of a scheme must write the same CSV, byte for byte, and the first
//     must match the committed sha256 where the seed has one; otherwise
//     all the sweep's cells fail.
//   - daemon-ingest: an operation is one POST /records or one session. A
//     POST not answered 202 fails. A session fails unless it ends done with
//     a Result equal to an offline core.Run of the same records, computed
//     once per scheme before the timed rounds.
//
// The digests are regenerated only with
//
//	go test -run TestDigests -update
//
// in this directory, for a change meant to alter simulated results.
//
// # Per-layer metrics: the traced run
//
// With -trace 1 the workload runs its rounds without and with the CPU
// profiler in the order without, with, with, without, repeated (250 Hz;
// Linux delivers profiling signals at most once per scheduler tick).
// Loop set-up is profiled too. Each window, sweep or
// session pair runs under pprof labels scheme=<mode> and phase=window;
// goroutines the sweep engine and the server start inherit them. The
// daemon's profiled rounds also record a block profile.
//
//	rps.<scheme>          one scheme's median normalised operation
//	                      throughput in the unprofiled rounds
//	wall.rps              rps as measured, not normalised, over the
//	                      unprofiled rounds
//	ref.steps_per_s       the reference kernel's median speed in them
//	gen.ns_per_rec       Generator.Next on fresh copies of the workload's
//	                      generators, median of three passes of 200k records
//	self_ns.<layer>       CPU ns per simulated record in profiled windows,
//	                      attributed to the innermost repro/internal/<layer>
//	                      frame (inlined frames expanded). Stacks with no
//	                      repository frame (runtime, standard library, this
//	                      benchmark) count as runtime; small modules (addr,
//	                      stats, ...) as other. Each sample stands for the
//	                      process CPU time of its profiled segment divided by
//	                      the segment's samples.
//	self_ns.<l>.<scheme>  the same for core, tlb, cache and dram, restricted
//	                      to one scheme's label
//	sim.*                 simulated counts per thousand records and P_avg,
//	                      from the schemes' Results; identical under any
//	                      host-only change
//	share.*_pct           share of all CPU samples whose stack holds
//	                      core.NewSystem or consolidation.New (build),
//	                      (*System).runRecords (loop), a (*SweepJournal)
//	                      method (journal), or no repository frame (runtime)
//	server.*              client timings (session create, POST /records p50
//	                      and p99), CPU shares of trace decoding, of the
//	                      session stream's methods and of Snapshot, and the
//	                      block profile's delay in streamGen.append per POST
//	                      (the simulation is the bottleneck) and in
//	                      streamGen.Next per thousand records (the upload is)
//	trace.ns_per_rec      wall ns per record over the profiled operations
//	trace.overhead_pct    how much faster the unprofiled rounds ran (wall
//	                      time both)
//	max_rss_mb            getrusage peak resident set of the process
//
// A layer a workload never enters reads 0. What should move what: faster
// pagetable and dram layers raise rps.{baseline,l4-cache,victima,dram-cache}
// on loop-uniform, while pom-tlb and tsb do no walks there. pomtlb moves
// rps.pom-tlb* on loop-uniform and loop-consol (partition scans on process
// exit). tlb moves every scheme on loop-zipf. core and consolidation move
// loop-consol against loop-uniform. virt and runtime move setup_s
// everywhere and rps and heap_live_mb where demand mapping continues
// (loop-zipf, loop-consol). sweep-grid answers to NewSystem and journal
// costs, daemon-ingest to the server.* metrics.
//
// On a loop workload the self_ns layers sum to trace.ns_per_rec, because
// one goroutine does all the work. The traced run writes cpu-NN.pprof
// (one per profiled segment; go tool pprof merges several files),
// block.pprof for the daemon, and spans.jsonl: the benchmark's own
// boundary spans (set-up steps, rounds, windows, sweeps, session pairs,
// HTTP requests, generator timing), each with id, parent, name, and start
// and end in ns since the run began.
package main
