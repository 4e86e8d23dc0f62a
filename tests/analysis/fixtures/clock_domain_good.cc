// Clock-domain good fixture: a DRAM-side component that names the
// DRAM clock only (DramCycle, dramCycle*). Mentions of Cycle and
// cpuCycle in comments and "Cycle cpuCycle" in strings never count.
// Never compiled; lint input only.

namespace fixture
{

class BankTimer
{
  public:
    bool
    ready(DramCycle now) const
    {
        return now >= dramCycleReady_;
    }

    const char *
    name() const
    {
        return "Cycle cpuCycle";
    }

  private:
    DramCycle dramCycleReady_ = 0;
};

} // namespace fixture
