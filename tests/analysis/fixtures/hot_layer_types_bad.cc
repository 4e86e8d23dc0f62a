// Fixture: type-erased callbacks and node hash tables in a per-cycle
// layer. Linted as if it lived under src/mem/, the hot-path-alloc
// rule must flag each marked line.
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using Done = std::function<void()>; // BAD: type-erased completion

struct Mshr
{
    std::vector<Done> waiters;
};

class Hierarchy
{
  public:
    void
    fill(std::uint64_t block)
    {
        auto it = mshrs_.find(block);
        if (it != mshrs_.end())
            mshrs_.erase(it);
        seen_.insert(block);
    }

  private:
    std::unordered_map<std::uint64_t, Mshr> mshrs_;  // BAD: node map
    std::unordered_set<std::uint64_t> seen_;         // BAD: node set
    std::function<void(std::uint64_t)> onFill_;      // BAD: callback
};
