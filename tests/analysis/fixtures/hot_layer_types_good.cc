// Fixture: the typed replacements — a POD completion token handed to
// an interface, a bounded FlatMap, an ordered std::map off the hot
// path, and mentions of the banned names in comments and strings
// (std::function, std::unordered_map) — must all stay silent when
// linted as if under src/mem/.
#include <cstdint>
#include <map>
#include <vector>

#include "sim/flat_map.hh"

struct Token
{
    std::uint8_t kind = 0;
    std::uint64_t value = 0;
};

class Client
{
  public:
    virtual ~Client() = default;
    virtual void done(Token token) = 0;
};

class Hierarchy
{
  public:
    const char *
    describe() const
    {
        return "replaces std::unordered_map and std::function";
    }

  private:
    critmem::FlatMap<std::vector<Token>> mshrs_{16, "MSHR file"};
    std::map<std::uint64_t, std::uint32_t> histogram_;
    Client *client_ = nullptr;
};
