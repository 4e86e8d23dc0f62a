#include "trace/workloads.hh"

#include "sim/log.hh"

namespace critmem
{

namespace
{

/**
 * Parallel application models (Table 2). Parameters encode each
 * program's published memory character: `art` is dominated by
 * two-level pointer chasing over the largest footprint of the suite
 * (Section 5.3.1); `swim`/`mg` are stencil/stream codes; `fft` mixes
 * unit-stride with row-crossing butterfly strides; `radix` scatters
 * stores; `ocean` has an unusually large static load population.
 */
std::vector<AppParams>
buildParallel()
{
    std::vector<AppParams> apps;

    AppParams art;
    art.name = "art";
    art.loadFrac = 0.30;
    art.storeFrac = 0.08;
    art.loopLength = 2048;
    art.localFrac = 0.80;
    art.seqFrac = 0.20;
    art.randomFrac = 0.40;
    art.chaseFrac = 0.40;
    art.sharedFrac = 0.10;
    art.privateBytes = 24ull << 20;
    art.randBytes = 4ull << 20;
    art.sharedBytes = 8ull << 20;
    art.rowLocality = 0.40;
    art.mispredictRate = 0.004;
    art.fanoutLoadFrac = 0.05;
    apps.push_back(art);

    AppParams cg;
    cg.name = "cg";
    cg.loopLength = 384;
    cg.localFrac = 0.87;
    cg.seqFrac = 0.40;
    cg.randomFrac = 0.45;
    cg.chaseFrac = 0.15;
    cg.sharedFrac = 0.25;
    cg.privateBytes = 8ull << 20;
    cg.rowLocality = 0.45;
    apps.push_back(cg);

    AppParams equake;
    equake.name = "equake";
    equake.loopLength = 448;
    equake.localFrac = 0.87;
    equake.seqFrac = 0.45;
    equake.randomFrac = 0.35;
    equake.chaseFrac = 0.20;
    equake.sharedFrac = 0.20;
    equake.privateBytes = 10ull << 20;
    apps.push_back(equake);

    AppParams fft;
    fft.name = "fft";
    fft.loopLength = 320;
    fft.localFrac = 0.86;
    fft.seqFrac = 0.60;
    fft.randomFrac = 0.28;
    fft.chaseFrac = 0.12;
    fft.sharedFrac = 0.30;
    fft.privateBytes = 12ull << 20;
    fft.bigStrideFrac = 0.50;
    apps.push_back(fft);

    AppParams mg;
    mg.name = "mg";
    mg.loopLength = 352;
    mg.localFrac = 0.89;
    mg.seqFrac = 0.70;
    mg.randomFrac = 0.25;
    mg.chaseFrac = 0.05;
    mg.sharedFrac = 0.30;
    mg.privateBytes = 12ull << 20;
    apps.push_back(mg);

    AppParams ocean;
    ocean.name = "ocean";
    ocean.loopLength = 6144;
    ocean.localFrac = 0.85;
    ocean.seqFrac = 0.45;
    ocean.randomFrac = 0.37;
    ocean.chaseFrac = 0.18;
    ocean.sharedFrac = 0.35;
    ocean.privateBytes = 16ull << 20;
    ocean.sharedBytes = 16ull << 20;
    apps.push_back(ocean);

    AppParams radix;
    radix.name = "radix";
    radix.loopLength = 256;
    radix.loadFrac = 0.26;
    radix.storeFrac = 0.18;
    radix.localFrac = 0.85;
    radix.seqFrac = 0.35;
    radix.randomFrac = 0.55;
    radix.chaseFrac = 0.10;
    radix.sharedFrac = 0.30;
    radix.privateBytes = 8ull << 20;
    radix.randBytes = 4ull << 20;
    radix.rowLocality = 0.35;
    apps.push_back(radix);

    AppParams scalparc;
    scalparc.name = "scalparc";
    scalparc.loopLength = 768;
    scalparc.localFrac = 0.86;
    scalparc.seqFrac = 0.30;
    scalparc.randomFrac = 0.45;
    scalparc.chaseFrac = 0.25;
    scalparc.sharedFrac = 0.30;
    scalparc.privateBytes = 12ull << 20;
    apps.push_back(scalparc);

    AppParams swim;
    swim.name = "swim";
    swim.loopLength = 320;
    swim.localFrac = 0.89;
    swim.seqFrac = 0.82;
    swim.randomFrac = 0.13;
    swim.chaseFrac = 0.05;
    swim.sharedFrac = 0.20;
    swim.privateBytes = 16ull << 20;
    apps.push_back(swim);

    return apps;
}

/**
 * Single-threaded models for the multiprogrammed bundles (Table 4).
 * P = processor-bound (tiny footprint), C = cache-sensitive (fits the
 * L2 only when lucky), M = memory-sensitive (big or streaming
 * footprint), following the paper's classification.
 */
std::vector<AppParams>
buildSingles()
{
    auto cpuBound = [](const std::string &name) {
        AppParams p;
        p.name = name;
        p.loadFrac = 0.20;
        p.storeFrac = 0.08;
        p.localFrac = 0.95;
        p.chaseFrac = 0.0;
        p.seqFrac = 0.60;
        p.randomFrac = 0.40;
        p.sharedFrac = 0.0;
        p.sharedBytes = 0;
        p.randBytes = 128ull << 10;
        p.privateBytes = 256ull << 10;
        p.rowLocality = 0.7;
        return p;
    };
    auto cacheSens = [](const std::string &name) {
        AppParams p;
        p.name = name;
        p.loadFrac = 0.26;
        p.storeFrac = 0.10;
        p.localFrac = 0.82;
        p.chaseFrac = 0.15;
        p.seqFrac = 0.40;
        p.randomFrac = 0.45;
        p.sharedFrac = 0.0;
        p.sharedBytes = 0;
        p.randBytes = 2500ull << 10;
        p.privateBytes = 3ull << 20;
        p.rowLocality = 0.5;
        return p;
    };
    auto memSens = [](const std::string &name) {
        AppParams p;
        p.name = name;
        p.loadFrac = 0.30;
        p.storeFrac = 0.12;
        p.localFrac = 0.65;
        p.chaseFrac = 0.20;
        p.seqFrac = 0.45;
        p.randomFrac = 0.35;
        p.sharedFrac = 0.0;
        p.sharedBytes = 0;
        p.randBytes = 6ull << 20;
        p.privateBytes = 16ull << 20;
        p.rowLocality = 0.4;
        return p;
    };

    std::vector<AppParams> apps;
    apps.push_back(cacheSens("ammp"));
    apps.push_back(cpuBound("ep"));
    apps.push_back(cacheSens("lu"));
    apps.push_back(cacheSens("vpr"));
    apps.push_back(cpuBound("crafty"));
    apps.push_back(cpuBound("mesa"));

    AppParams is = memSens("is");
    is.seqFrac = 0.25;
    is.randomFrac = 0.70;
    is.chaseFrac = 0.05;
    apps.push_back(is);

    AppParams mgSt = memSens("mg_st");
    mgSt.seqFrac = 0.75;
    mgSt.randomFrac = 0.20;
    mgSt.chaseFrac = 0.05;
    apps.push_back(mgSt);

    apps.push_back(cacheSens("mgrid"));
    apps.push_back(cacheSens("parser"));

    AppParams sp = memSens("sp");
    sp.seqFrac = 0.70;
    sp.randomFrac = 0.25;
    sp.chaseFrac = 0.05;
    apps.push_back(sp);

    AppParams artSt = cacheSens("art_st");
    artSt.chaseFrac = 0.30;
    artSt.randomFrac = 0.35;
    artSt.seqFrac = 0.35;
    artSt.privateBytes = 4ull << 20;
    apps.push_back(artSt);

    AppParams mcf = memSens("mcf");
    mcf.chaseFrac = 0.50;
    mcf.randomFrac = 0.30;
    mcf.seqFrac = 0.20;
    mcf.privateBytes = 24ull << 20;
    mcf.rowLocality = 0.25;
    apps.push_back(mcf);

    AppParams twolf = memSens("twolf");
    twolf.chaseFrac = 0.20;
    twolf.randomFrac = 0.50;
    twolf.seqFrac = 0.30;
    twolf.privateBytes = 8ull << 20;
    apps.push_back(twolf);

    return apps;
}

} // namespace

const std::vector<AppParams> &
parallelApps()
{
    static const std::vector<AppParams> apps = buildParallel();
    return apps;
}

const std::vector<AppParams> &
singleApps()
{
    static const std::vector<AppParams> singles = buildSingles();
    return singles;
}

namespace
{

const AppParams *
lookupApp(const std::string &name)
{
    for (const AppParams &params : parallelApps()) {
        if (params.name == name)
            return &params;
    }
    for (const AppParams &params : singleApps()) {
        if (params.name == name)
            return &params;
    }
    return nullptr;
}

} // namespace

const AppParams &
appParams(const std::string &name)
{
    if (const AppParams *params = lookupApp(name))
        return *params;
    fatal("unknown application model '", name, "'");
}

bool
haveApp(const std::string &name)
{
    return lookupApp(name) != nullptr;
}

const std::vector<Bundle> &
multiprogBundles()
{
    static const std::vector<Bundle> bundles = {
        {"AELV", {"ammp", "ep", "lu", "vpr"}},
        {"CMLI", {"crafty", "mesa", "lu", "is"}},
        {"GAMV", {"mg_st", "ammp", "mesa", "vpr"}},
        {"GDPC", {"mg_st", "mgrid", "parser", "crafty"}},
        {"GSMV", {"mg_st", "sp", "mesa", "vpr"}},
        {"RFEV", {"art_st", "mcf", "ep", "vpr"}},
        {"RFGI", {"art_st", "mcf", "mg_st", "is"}},
        {"RGTM", {"art_st", "mg_st", "twolf", "mesa"}},
    };
    return bundles;
}

const Bundle *
findBundle(const std::string &name)
{
    for (const Bundle &bundle : multiprogBundles()) {
        if (bundle.name == name)
            return &bundle;
    }
    return nullptr;
}

namespace
{

std::vector<TraceWorkload> &
traceRegistry()
{
    static std::vector<TraceWorkload> traces;
    return traces;
}

} // namespace

const TraceWorkload &
registerTraceWorkload(const std::string &name, const std::string &path)
{
    if (name.empty())
        throw std::runtime_error("trace workload name is empty");
    if (name.find('/') != std::string::npos ||
        name.find_first_of(" \t") != std::string::npos) {
        throw std::runtime_error("trace workload name '" + name +
                                 "' contains '/' or whitespace");
    }
    if (haveApp(name) || findBundle(name) != nullptr) {
        throw std::runtime_error(
            "trace workload name '" + name +
            "' collides with a built-in application or bundle");
    }
    for (const TraceWorkload &wl : traceRegistry()) {
        if (wl.name == name && wl.path != path) {
            throw std::runtime_error(
                "trace workload '" + name +
                "' is already registered with path '" + wl.path +
                "'");
        }
    }

    const ingest::ScanSummary sum = ingest::scanTrace(path);
    for (std::uint32_t c = 0; c < sum.numCores; ++c) {
        if (sum.perCoreRecords[c] == 0) {
            throw TraceError(
                "trace '" + path + "' declares " +
                    std::to_string(sum.numCores) +
                    " cores but has no records for core " +
                    std::to_string(c) +
                    " (the loop replay would starve it)",
                0);
        }
    }

    TraceWorkload entry;
    entry.name = name;
    entry.path = path;
    entry.numCores = sum.numCores;
    entry.records = sum.records;
    entry.contentHash = sum.contentHash;
    entry.coreRegions = sum.coreRegions;

    for (TraceWorkload &wl : traceRegistry()) {
        if (wl.name == name) {
            wl = std::move(entry);
            return wl;
        }
    }
    traceRegistry().push_back(std::move(entry));
    return traceRegistry().back();
}

const std::vector<TraceWorkload> &
traceWorkloads()
{
    return traceRegistry();
}

const TraceWorkload *
findTraceWorkload(const std::string &name)
{
    for (const TraceWorkload &wl : traceRegistry()) {
        if (wl.name == name)
            return &wl;
    }
    return nullptr;
}

void
clearTraceWorkloads()
{
    traceRegistry().clear();
}

} // namespace critmem
