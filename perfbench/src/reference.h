#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

namespace perfbench {

/// CPU seconds the reference kernel takes on the reference machine. The
/// end-to-end CPU-time metrics are scaled to that machine's speed (see
/// NOTES.md, "Host speed").
constexpr double kReferenceKernelS = 0.05;

/// Runs the reference kernel once and returns the process CPU seconds it
/// took. The kernel is fixed code that uses none of the library: it
/// allocates and frees small objects and searches ordered and hashed maps,
/// which slows down with the host as the simulator does, so the ratio of
/// its time to kReferenceKernelS measures how fast the host is running.
double ReferenceKernelCpuS();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
