// Clock-domain bad fixture: one file names a CPU-cycle quantity
// (the Cycle type) and a DRAM-cycle one (a dramCycle* name), so a
// mix is one typo away. The single finding lands on line 20, the
// first line that names the second domain. Never compiled; lint
// input only.

namespace fixture
{

class Mixer
{
  public:
    void
    advance(Cycle now)
    {
        cpuNow_ = now;
    }

    // Both clocks are std::uint64_t: this compiles and is wrong.
    std::uint64_t skew() const { return cpuNow_ + dramCycleNow_; }

  private:
    Cycle cpuNow_ = 0;
    std::uint64_t dramCycleNow_ = 0;
};

} // namespace fixture
