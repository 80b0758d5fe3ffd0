/**
 * @file
 * Host-speed probe. On a shared host the core clock of a virtual CPU
 * drifts by 20-30% over minutes as neighbours load the machine, and
 * every core-bound timing drifts with it. The probe runs a fixed,
 * core-bound integer kernel (an L2-resident table walk with
 * unpredictable branches, no simulator code) next to every simulated
 * point; the benchmark scales its throughput by the probe's slowdown
 * against a fixed reference, so a clock drift cancels while a change
 * to the simulator does not.
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

namespace perfbench
{

/**
 * Run the kernel once (about 3 ms) on the calling thread and return the
 * host's speed relative to the reference: 1.0 = the probe ran at the
 * reference speed, 0.8 = it took 1.25x as long. Noisy alone; the
 * benchmark averages one probe per simulated point.
 */
double probeHostSpeed();

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
