/**
 * @file
 * Table 5 (criticality counter widths) and Section 5.7 (storage
 * overhead). The max observed value for each CBP annotation is
 * measured across all parallel applications with the 64-entry table;
 * the width is the bits needed to store it, and the storage
 * calculator reproduces the paper's per-core and whole-system SRAM
 * accounting. Paper reference widths: Binary 1 b, BlockCount 21 b,
 * Last/MaxStallTime 14 b, TotalStallTime 27 b; Binary costs
 * 109-301 B, MaxStallTime 1,357-1,805 B, TotalStallTime
 * 2,605-3,469 B for 8 cores / 4 channels.
 */

#include "bench/bench_util.hh"

#include "crit/overhead.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Table 5 + Section 5.7: counter widths and storage "
                "overhead (quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    std::printf("%-14s %14s %6s %12s %12s %12s %12s\n", "metric",
                "maxObserved", "width", "core-min(b)", "core-max(b)",
                "sys-min(B)", "sys-max(B)");

    const SystemConfig dims = SystemConfig::parallelDefault();
    const std::vector<CritPredictor> preds = {
        CritPredictor::CbpBinary,    CritPredictor::CbpBlockCount,
        CritPredictor::CbpLastStall, CritPredictor::CbpMaxStall,
        CritPredictor::CbpTotalStall,
    };

    for (const CritPredictor pred : preds) {
        std::uint64_t maxObserved = 0;
        for (const AppParams &app : parallelApps()) {
            const RunResult run = runApp(
                withPredictor(parallelBase(), pred, 64), app, q);
            maxObserved = std::max(maxObserved, run.maxCbpValue);
        }
        const std::uint32_t width =
            pred == CritPredictor::CbpBinary
                ? 1
                : counterWidth(maxObserved);
        const OverheadReport report =
            storageOverhead(width, 64, dims);
        std::printf("%-14s %14llu %5ub %12llu %12llu %12llu %12llu\n",
                    toString(pred),
                    static_cast<unsigned long long>(maxObserved), width,
                    static_cast<unsigned long long>(
                        report.perCoreMinBits),
                    static_cast<unsigned long long>(
                        report.perCoreMaxBits),
                    static_cast<unsigned long long>(
                        report.systemMinBytes),
                    static_cast<unsigned long long>(
                        report.systemMaxBytes));
    }

    std::printf("\n# paper-width reference accounting (widths as "
                "published):\n");
    for (const auto &[name, width] :
         std::vector<std::pair<const char *, std::uint32_t>>{
             {"Binary", 1},
             {"BlockCount", 21},
             {"LastStallTime", 14},
             {"MaxStallTime", 14},
             {"TotalStallTime", 27}}) {
        const OverheadReport report = storageOverhead(width, 64, dims);
        std::printf("%-14s %5ub core %llu-%llu bits, system %llu-%llu "
                    "bytes\n",
                    name, width,
                    static_cast<unsigned long long>(
                        report.perCoreMinBits),
                    static_cast<unsigned long long>(
                        report.perCoreMaxBits),
                    static_cast<unsigned long long>(
                        report.systemMinBytes),
                    static_cast<unsigned long long>(
                        report.systemMaxBytes));
    }
    return 0;
}
