/**
 * @file
 * Adversarial inputs for every trace decoder. Small recorded traces in
 * each on-disk format (native v2, ChampSim with ip and with period
 * timing, SIFT) take seeded byte flips and overwrites, record times at
 * the reserved kTimeNever, truncations and extensions.
 * Each mutant is opened and fully drained in a forked child, one at a
 * time, and must either drain — times never fall, and the count
 * matches size(), twice across a reset() — or exit through a clean
 * `fatal:`. A crash, a sanitizer report or a broken invariant fails.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/catalog.h"
#include "trace/champsim.h"
#include "trace/native.h"
#include "trace/sift.h"

namespace mempod {
namespace {

using Bytes = std::vector<char>;

Bytes
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return Bytes((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const Bytes &bytes)
{
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** How a child ended: its exit status and everything on its stderr. */
struct Outcome
{
    int status = -1;
    std::string err;
};

/**
 * Run `body` in a forked child; it exits 0 unless `body` exits. An
 * exit() in the child (a fatal) ends there, with status 1, before any
 * later exit handler such as a sanitizer's leak scan of the forked
 * heap: with that scan the test took 8.4 s under ASan, without it
 * 1.9 s.
 */
Outcome
inChild(const std::function<void()> &body)
{
    int fds[2];
    if (pipe(fds) != 0)
        return {};
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return {};
    }
    if (pid == 0) {
        std::atexit([] {
            std::fflush(nullptr);
            _exit(1);
        });
        dup2(fds[1], STDERR_FILENO);
        close(fds[0]);
        close(fds[1]);
        body();
        std::fflush(nullptr);
        _exit(0);
    }
    close(fds[1]);
    Outcome o;
    char buf[4096];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
        o.err.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    waitpid(pid, &o.status, 0);
    return o;
}

/**
 * Drain `source` twice (across a reset); report a broken invariant on
 * stderr with exit 2.
 */
void
drainChecked(TraceSource &source)
{
    for (int pass = 0; pass < 2; ++pass) {
        source.reset();
        TraceRecord r;
        std::uint64_t n = 0;
        TimePs prev = 0;
        while (source.next(r)) {
            if (r.time < prev || r.time == kTimeNever) {
                std::fprintf(stderr, "broken: record %llu at %llu ps "
                                     "after %llu ps\n",
                             static_cast<unsigned long long>(n),
                             static_cast<unsigned long long>(r.time),
                             static_cast<unsigned long long>(prev));
                std::fflush(stderr);
                _exit(2);
            }
            prev = r.time;
            ++n;
        }
        if (n != source.size()) {
            std::fprintf(stderr, "broken: drained %llu records, size() "
                                 "says %llu\n",
                         static_cast<unsigned long long>(n),
                         static_cast<unsigned long long>(source.size()));
            std::fflush(stderr);
            _exit(2);
        }
    }
}

/** One on-disk format: its layout, its files and how to open them. */
struct Format
{
    const char *name;
    std::size_t headerBytes;
    std::size_t recordBytes;
    std::size_t timeOffset; //!< of a record's time (or ip, icount)
    std::vector<CoreFile> files;
    std::function<std::unique_ptr<TraceSource>(std::vector<CoreFile>)>
        open;
};

TEST(TraceMutation, EveryMutantDrainsOrFailsCleanly)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("trace_mutation_test_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir);

    GeneratorConfig gc;
    gc.totalRequests = 240;
    gc.footprintScale = 0.02;
    const Trace base = WorkloadCatalog::global().build("mix5", gc);
    VectorTraceSource vec(base);
    const std::string native = (dir / "base.trc").string();
    writeNativeTrace(base, native);
    const ConvertResult cs_ip = convertToChampSim(
        vec, (dir / "cs_ip").string(), ChampSimTiming::kIp);
    const ConvertResult cs_period = convertToChampSim(
        vec, (dir / "cs_period").string(), ChampSimTiming::kPeriod);
    const ConvertResult sift = convertToSift(vec, (dir / "sift").string(), 1);

    const std::vector<Format> formats = {
        {"native", native_trace::kHeaderBytes, native_trace::kRecordBytes,
         0, {{native, 0}},
         [](std::vector<CoreFile> f) -> std::unique_ptr<TraceSource> {
             return std::make_unique<NativeTraceSource>(f[0].path);
         }},
        {"champsim-ip", 0, champsim::kInstrBytes, 0, cs_ip.files,
         [](std::vector<CoreFile> f) -> std::unique_ptr<TraceSource> {
             return std::make_unique<ChampSimTraceSource>(
                 std::move(f), ChampSimTiming::kIp, 1000,
                 champsim::kDefaultAddrBias);
         }},
        {"champsim-period", 0, champsim::kInstrBytes, 0,
         cs_period.files,
         [](std::vector<CoreFile> f) -> std::unique_ptr<TraceSource> {
             return std::make_unique<ChampSimTraceSource>(
                 std::move(f), ChampSimTiming::kPeriod, 1000,
                 champsim::kDefaultAddrBias);
         }},
        {"sift", sift::kHeaderBytes, sift::kMemAccessBytes, 1, sift.files,
         [](std::vector<CoreFile> f) -> std::unique_ptr<TraceSource> {
             return std::make_unique<SiftTraceSource>(std::move(f), 1);
         }},
    };

    Rng rng(0x74726163);
    for (const Format &fmt : formats) {
        // The unmutated files drain.
        const Outcome clean =
            inChild([&] { drainChecked(*fmt.open(fmt.files)); });
        ASSERT_TRUE(WIFEXITED(clean.status) &&
                    WEXITSTATUS(clean.status) == 0)
            << fmt.name << ": " << clean.err;

        std::size_t drained = 0, fatal = 0;
        for (int m = 0; m < 60; ++m) {
            // Mutate one file of the set into a copy beside it.
            std::vector<CoreFile> files = fmt.files;
            CoreFile &victim = files[rng.nextBelow(files.size())];
            Bytes bytes = readBytes(victim.path);
            std::string what;
            const int edits = 1 + static_cast<int>(rng.nextBelow(3));
            for (int e = 0; e < edits; ++e) {
                const std::size_t at =
                    bytes.empty() ? 0 : rng.nextBelow(bytes.size());
                switch (rng.nextBelow(6)) {
                  case 0: // flip one bit
                    if (bytes.empty())
                        break;
                    bytes[at] = static_cast<char>(
                        bytes[at] ^ (1u << rng.nextBelow(8)));
                    what += " flip@" + std::to_string(at);
                    break;
                  case 1: // overwrite a byte
                    if (bytes.empty())
                        break;
                    bytes[at] = static_cast<char>(rng.nextBelow(256));
                    what += " set@" + std::to_string(at);
                    break;
                  case 2: // one record's time at 2^64-1 ps (kTimeNever),
                          // often the last, which no later record
                          // shows out of order
                  {
                    if (bytes.size() < fmt.headerBytes + fmt.recordBytes)
                        break;
                    const std::size_t records =
                        (bytes.size() - fmt.headerBytes) / fmt.recordBytes;
                    const std::size_t k = rng.nextBool(0.5)
                                              ? records - 1
                                              : rng.nextBelow(records);
                    const std::size_t t = fmt.headerBytes +
                                          k * fmt.recordBytes +
                                          fmt.timeOffset;
                    for (std::size_t i = 0; i < 8; ++i)
                        bytes[t + i] = static_cast<char>(0xff);
                    what += " never@" + std::to_string(t);
                    break;
                  }
                  case 3: // truncate
                    bytes.resize(at);
                    what += " cut@" + std::to_string(at);
                    break;
                  case 4: // extend with random bytes
                  {
                    const std::size_t n = 1 + rng.nextBelow(80);
                    for (std::size_t i = 0; i < n; ++i)
                        bytes.push_back(
                            static_cast<char>(rng.nextBelow(256)));
                    what += " grow+" + std::to_string(n);
                    break;
                  }
                  default: // extend with a copy of one record's bytes
                  {
                    const std::size_t n = fmt.recordBytes;
                    if (bytes.size() < n)
                        break;
                    const std::size_t from = rng.nextBelow(
                        bytes.size() - n + 1);
                    const Bytes rec(bytes.begin() + from,
                                    bytes.begin() + from + n);
                    bytes.insert(bytes.end(), rec.begin(), rec.end());
                    what += " dup@" + std::to_string(from);
                  }
                }
            }
            victim.path += ".mutant";
            writeBytes(victim.path, bytes);

            const Outcome o =
                inChild([&] { drainChecked(*fmt.open(files)); });
            const bool ok = WIFEXITED(o.status) &&
                            WEXITSTATUS(o.status) == 0 && o.err.empty();
            const bool clean_fatal = WIFEXITED(o.status) &&
                                     WEXITSTATUS(o.status) == 1 &&
                                     o.err.rfind("fatal: ", 0) == 0;
            ASSERT_TRUE(ok || clean_fatal)
                << fmt.name << " mutant " << m << " (" << victim.path
                << what << "): status " << o.status << "\n"
                << o.err;
            drained += ok;
            fatal += clean_fatal;
        }
        // Both outcomes must actually be exercised.
        EXPECT_GT(drained, 0u) << fmt.name;
        EXPECT_GT(fatal, 0u) << fmt.name;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mempod
