// Fixture pair of naked_evict_violation.cc: the same pressure resolved by
// handing the entry to the proxy cache, which chooses every victim itself.
// No budget-balancing erase loop, so no naked-evict finding.
#include <string>

struct ProxyCacheFacade {
  void Insert(std::string key, unsigned long long size, long long now);
};

struct KernelBackedCache {
  ProxyCacheFacade cache_;

  void Store(const std::string& key, unsigned long long size, long long now) {
    cache_.Insert(key, size, now);
  }
};
