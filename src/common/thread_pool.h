// Thread-count and core-affinity helpers for the online runtime's shard
// workers (runtime/online.cc).

#ifndef DLACEP_COMMON_THREAD_POOL_H_
#define DLACEP_COMMON_THREAD_POOL_H_

#include <cstddef>

namespace dlacep {

/// Resolves a thread-count knob: 0 means hardware concurrency (at least
/// 1 if the runtime cannot tell), any other value is taken literally.
size_t ResolveNumThreads(size_t requested);

/// Pins the calling thread to `core` (a hardware-concurrency index).
/// Best-effort: returns true on success, false when the platform has no
/// affinity API or the kernel refuses (cgroup cpusets, core out of
/// range). Callers must treat a false return as advisory — the sharded
/// runtime counts it in ShardStats and keeps running unpinned.
bool PinCurrentThreadToCore(size_t core);

}  // namespace dlacep

#endif  // DLACEP_COMMON_THREAD_POOL_H_
