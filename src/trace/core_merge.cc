#include "trace/core_merge.h"

#include <fstream>
#include <map>

namespace mempod {

ConvertResult
splitByCore(TraceSource &source, const std::string &stem, const char *ext,
            const std::string &header,
            const std::function<void(const TraceRecord &, std::string &)>
                &encode,
            const std::string &trailer)
{
    const auto path_of = [&](unsigned core) {
        return stem + ".core" + std::to_string(core) + "." + ext;
    };
    source.reset();
    std::map<std::uint8_t, std::ofstream> out;
    ConvertResult result;
    std::string bytes;
    TraceRecord rec;
    while (source.next(rec)) {
        const auto [it, first] = out.try_emplace(rec.core);
        bytes.clear();
        if (first) {
            it->second.open(path_of(rec.core), std::ios::binary);
            bytes = header;
        }
        encode(rec, bytes);
        it->second << bytes;
        ++result.records;
    }
    // Map order is ascending core: the manifest's order.
    for (auto &[core, f] : out) {
        f << trailer;
        f.close();
        if (!f)
            MEMPOD_FATAL("writing '%s' failed", path_of(core).c_str());
        result.files.push_back({path_of(core), core});
    }
    source.reset();
    return result;
}

} // namespace mempod
