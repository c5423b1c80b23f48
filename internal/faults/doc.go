// Package faults is a deterministic, seed-driven fault injector for two
// targets: the BTrace tracer on the simulated SoC, and the trace
// server's admission path. The paper's production deployment (§2.1, §6)
// runs the tracer behind watchdog daemons because real devices misbehave
// — threads freeze mid-write, drivers stall, CPUs hot-unplug — and the
// algorithm's availability mechanisms (block skipping, out-of-order
// confirmation, implicit reclaiming) exist precisely to survive those
// events. PreemptStorm, Straggler and Hotplug *provoke* them on demand so
// the chaos suite can assert every DESIGN.md invariant under each
// scenario; BurstSource and FlakyStore (overloadfaults.go) flood
// ingest.Admission and fail the store appends behind it.
//
// All decisions are drawn from per-hook PRNG streams derived from one
// root seed, so the injected schedule of every hook is a deterministic
// function of (seed, hook name, invocation index): the same seed always
// plans the same faults, regardless of how the system under test
// interleaves. The consumed prefix of a hook's stream can differ across
// runs of a concurrent scenario (threads race to the hooks), but the
// stream contents never do.
//
// FlakyStore's failures are transient, which a real store's never are
// (a store's write-path failure is sticky): they stand for a replica that
// refuses a batch and later recovers. No caller retries one: the
// single-store /ingest handler counts the batch dropped, and a cluster
// delivery goes to its hedge.
//
// # Scenarios
//
// Each runs under `make chaos` with a fixed seed and asserts:
//   - a preemption storm inside the allocate→confirm window, a writer
//     frozen holding unconfirmed bytes, and a core hot-unplugged during a
//     Resize leave the buffer's quiescence invariants intact, read out by
//     core.Buffer.Verify (TestChaosPreemptStorm, TestChaosStragglerKill,
//     TestChaosHotplugDuringResize);
//   - an oversubscribed source into a wedge-able store drives the gate
//     through whole engage, degrade, recover cycles with the event-exact
//     identity produced == stored + throttled + sampled_out + shed +
//     refused, and a wedged store is attempted exactly once per storm
//     batch that admitted anything (TestChaosOverloadStorm);
//   - killing one of four RF=2 shards mid-storm while another wedges
//     loses no acked event, and seen == acked + throttled +
//     gate-dropped + refused (TestChaosClusterShardKill);
//   - the vulture's read-back holds on every surface after a storm with a
//     drain (TestChaosVultureContinuous);
//   - one seed plans one schedule: a storm and a burst into a flaky store,
//     each run twice per seed, give identical hook schedules and
//     admission counts (TestChaosDeterministicSchedules,
//     TestFlakyStoreDeterministicSchedule).
//
// The hooks themselves: TestPreemptStormForcesPreemptions,
// TestStragglerStallAndRelease, TestChainRoutesStall,
// TestHotplugRecordsSchedule.
package faults
