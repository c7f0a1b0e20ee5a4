#include "trace/manifest.h"

#include <optional>
#include <set>
#include <vector>

#include "common/json.h"
#include "common/log.h"

namespace mempod {

namespace {

using json::Value;

std::string
dirnameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

std::string
resolvePath(const std::string &base, const std::string &path)
{
    if (!path.empty() && path[0] == '/')
        return path;
    return base + "/" + path;
}

/** Require a specific kind, with the manifest path in the error. */
const Value &
require(const Value *v, Value::Kind kind, const char *what,
        const std::string &manifest)
{
    static const char *names[] = {"null",   "bool",  "number",
                                  "string", "array", "object"};
    if (v == nullptr) {
        MEMPOD_FATAL("trace manifest '%s': missing required key %s",
                     manifest.c_str(), what);
    }
    if (v->kind != kind) {
        MEMPOD_FATAL("trace manifest '%s': %s must be a %s (got %s)",
                     manifest.c_str(), what,
                     names[static_cast<int>(kind)],
                     names[static_cast<int>(v->kind)]);
    }
    return *v;
}

std::uint64_t
asU64(const Value &v, const char *what, const std::string &manifest)
{
    const std::optional<std::uint64_t> u = v.asU64();
    if (!u) {
        MEMPOD_FATAL("trace manifest '%s': %s must be a non-negative "
                     "integer",
                     manifest.c_str(), what);
    }
    return *u;
}

void
rejectUnknownKeys(const Value &obj,
                  const std::set<std::string> &known,
                  const char *where, const std::string &manifest)
{
    for (const auto &[k, v] : obj.members) {
        (void)v;
        if (known.count(k) == 0) {
            MEMPOD_FATAL("trace manifest '%s': unknown key \"%s\" in "
                         "%s — check for a typo (known keys are "
                         "documented in EXPERIMENTS.md)",
                         manifest.c_str(), k.c_str(), where);
        }
    }
}

} // namespace

std::vector<ExternalTraceSpec>
loadTraceManifest(const std::string &path)
{
    const std::optional<std::string> text = json::readFile(path);
    if (!text)
        MEMPOD_FATAL("cannot open trace manifest '%s'", path.c_str());
    const json::Parsed doc = json::parse(*text);
    if (doc.error) {
        MEMPOD_FATAL("'%s' line %zu: %s", path.c_str(), doc.error->line,
                     doc.error->message.c_str());
    }
    const Value &root = doc.value;
    const std::string base = dirnameOf(path);
    if (root.kind != Value::Kind::kObject)
        MEMPOD_FATAL("trace manifest '%s': top level must be an object",
                     path.c_str());
    rejectUnknownKeys(root, {"version", "traces"}, "the manifest", path);
    const Value &version = require(
        root.find("version"), Value::Kind::kNumber, "\"version\"",
        path);
    if (asU64(version, "\"version\"", path) != 1) {
        MEMPOD_FATAL("trace manifest '%s': version %s, but this "
                     "build reads version 1",
                     path.c_str(), version.text.c_str());
    }
    const Value &traces = require(
        root.find("traces"), Value::Kind::kArray, "\"traces\"",
        path);

    std::vector<ExternalTraceSpec> out;
    std::set<std::string> names;
    for (const Value &entry : traces.items) {
        if (entry.kind != Value::Kind::kObject) {
            MEMPOD_FATAL("trace manifest '%s': each \"traces\" entry "
                         "must be an object",
                         path.c_str());
        }
        rejectUnknownKeys(entry,
                          {"name", "format", "file", "files", "timing",
                           "period_ps", "addr_bias", "time_scale"},
                          "a trace entry", path);
        ExternalTraceSpec spec;
        spec.name = require(entry.find("name"),
                            Value::Kind::kString, "\"name\"", path)
                        .text;
        spec.format = require(entry.find("format"),
                              Value::Kind::kString, "\"format\"",
                              path)
                          .text;
        if (spec.format != "native" && spec.format != "champsim" &&
            spec.format != "sift") {
            MEMPOD_FATAL("trace manifest '%s': trace \"%s\" has format "
                         "\"%s\"; supported formats are native, "
                         "champsim, sift",
                         path.c_str(), spec.name.c_str(),
                         spec.format.c_str());
        }
        if (!names.insert(spec.name).second) {
            MEMPOD_FATAL("trace manifest '%s': duplicate trace name "
                         "\"%s\"",
                         path.c_str(), spec.name.c_str());
        }

        const Value *file = entry.find("file");
        const Value *files = entry.find("files");
        if (spec.format == "native") {
            const Value &f = require(file, Value::Kind::kString,
                                         "\"file\"", path);
            if (files != nullptr) {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" is "
                             "native; use \"file\", not \"files\"",
                             path.c_str(), spec.name.c_str());
            }
            spec.files.push_back({resolvePath(base, f.text), 0});
        } else {
            if (file != nullptr) {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" is "
                             "%s; use per-core \"files\", not "
                             "\"file\"",
                             path.c_str(), spec.name.c_str(),
                             spec.format.c_str());
            }
            const Value &fs = require(
                files, Value::Kind::kArray, "\"files\"", path);
            if (fs.items.empty()) {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" has an "
                             "empty \"files\" list",
                             path.c_str(), spec.name.c_str());
            }
            std::set<std::uint64_t> cores;
            for (const Value &fe : fs.items) {
                if (fe.kind != Value::Kind::kObject) {
                    MEMPOD_FATAL("trace manifest '%s': \"files\" "
                                 "entries must be objects with "
                                 "\"path\" and \"core\"",
                                 path.c_str());
                }
                rejectUnknownKeys(fe, {"path", "core"},
                                  "a \"files\" entry", path);
                CoreFile mf;
                mf.path = resolvePath(
                    base, require(fe.find("path"),
                                  Value::Kind::kString, "\"path\"",
                                  path)
                              .text);
                const std::uint64_t core =
                    asU64(require(fe.find("core"),
                                  Value::Kind::kNumber, "\"core\"",
                                  path),
                          "\"core\"", path);
                if (core > 255 || !cores.insert(core).second) {
                    MEMPOD_FATAL("trace manifest '%s': trace \"%s\" "
                                 "core %llu is out of range or "
                                 "duplicated",
                                 path.c_str(), spec.name.c_str(),
                                 static_cast<unsigned long long>(core));
                }
                mf.core = static_cast<std::uint8_t>(core);
                spec.files.push_back(mf);
            }
        }

        if (const Value *t = entry.find("timing")) {
            if (spec.format != "champsim") {
                MEMPOD_FATAL("trace manifest '%s': \"timing\" only "
                             "applies to champsim traces (trace "
                             "\"%s\" is %s)",
                             path.c_str(), spec.name.c_str(),
                             spec.format.c_str());
            }
            spec.timing = require(t, Value::Kind::kString,
                                  "\"timing\"", path)
                              .text;
            if (spec.timing != "period" && spec.timing != "ip") {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" timing "
                             "\"%s\"; supported timings are period, "
                             "ip",
                             path.c_str(), spec.name.c_str(),
                             spec.timing.c_str());
            }
        }
        if (const Value *p = entry.find("period_ps")) {
            spec.periodPs = asU64(require(p, Value::Kind::kNumber,
                                          "\"period_ps\"", path),
                                  "\"period_ps\"", path);
        }
        if (const Value *b = entry.find("addr_bias")) {
            if (spec.format != "champsim") {
                MEMPOD_FATAL("trace manifest '%s': \"addr_bias\" only "
                             "applies to champsim traces (trace "
                             "\"%s\" is %s)",
                             path.c_str(), spec.name.c_str(),
                             spec.format.c_str());
            }
            spec.addrBias = asU64(require(b, Value::Kind::kNumber,
                                          "\"addr_bias\"", path),
                                  "\"addr_bias\"", path);
        }
        if (const Value *s = entry.find("time_scale")) {
            spec.timeScale = *require(s, Value::Kind::kNumber,
                                      "\"time_scale\"", path)
                                  .asDouble();
            if (!(spec.timeScale > 0)) {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" "
                             "time_scale must be > 0",
                             path.c_str(), spec.name.c_str());
            }
        }
        out.push_back(std::move(spec));
    }
    return out;
}

} // namespace mempod
