#include "common/thread_pool.h"

#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace dlacep {

size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

bool PinCurrentThreadToCore(size_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (core >= CPU_SETSIZE) return false;
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace dlacep
