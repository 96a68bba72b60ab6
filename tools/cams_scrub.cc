/**
 * @file
 * cams_scrub -- offline durability scrubber for compile cache
 * directories.
 *
 * Validates every .cce entry (magic, version, checksum, stored-hash /
 * file-name consistency, full payload decode), quarantines anything
 * torn or bit-rotted into <dir>/corrupt/, and removes .tmp-* writer
 * debris. camsd runs the same scrub on startup; this tool exists for offline use -- after a crash,
 * in cron, or as a CI gate (--expect-clean).
 *
 * Usage:
 *   cams_scrub [--root DIR] [--json FILE] [--expect-clean] [DIR...]
 *
 * Positional DIRs are scrubbed directly; --root DIR scrubs every
 * immediate subdirectory (camsd's per-tenant cache layout). Exit
 * status: 0 on a clean pass, 1 when --expect-clean found anything to
 * quarantine, 2 on usage or I/O errors.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/cache/compile_cache.hh"

namespace
{

using namespace cams;
namespace fs = std::filesystem;

int
usage()
{
    std::cerr
        << "usage: cams_scrub [options] [DIR...]\n"
           "  --root DIR      scrub every immediate subdirectory of "
           "DIR (camsd's per-tenant layout)\n"
           "  --json FILE     write the aggregate report as JSON "
           "('-' = stdout)\n"
           "  --expect-clean  exit 1 when anything was quarantined "
           "(CI gate)\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> dirs;
    std::string root;
    std::string json_path;
    bool expect_clean = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            if (i + 1 >= argc)
                return usage();
            root = argv[++i];
        } else if (arg == "--json") {
            if (i + 1 >= argc)
                return usage();
            json_path = argv[++i];
        } else if (arg == "--expect-clean") {
            expect_clean = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown option: " << arg << "\n";
            return usage();
        } else {
            dirs.push_back(arg);
        }
    }
    if (!root.empty()) {
        std::error_code ec;
        fs::directory_iterator it(root, ec);
        if (ec) {
            std::cerr << "error: cannot open root " << root << ": "
                      << ec.message() << "\n";
            return 2;
        }
        for (const auto &entry : it) {
            if (entry.is_directory(ec) && !ec &&
                entry.path().filename() != "corrupt")
                dirs.push_back(entry.path().string());
        }
    }
    if (dirs.empty())
        return usage();

    ScrubReport total;
    bool failed = false;
    for (const std::string &dir : dirs) {
        const ScrubReport report = scrubCacheDir(dir);
        if (!report.error.empty()) {
            std::cerr << "error: " << report.error << "\n";
            failed = true;
            continue;
        }
        total.entriesScanned += report.entriesScanned;
        total.entriesOk += report.entriesOk;
        total.quarantined += report.quarantined;
        total.tmpRemoved += report.tmpRemoved;
        std::cout << "cams_scrub: " << dir << ": "
                  << report.entriesScanned << " scanned, "
                  << report.entriesOk << " ok, "
                  << report.quarantined << " quarantined, "
                  << report.tmpRemoved << " tmp removed\n";
    }

    if (!json_path.empty()) {
        std::ostringstream json;
        json << "{\n"
             << "  \"bench\": \"cams_scrub\",\n"
             << "  \"directories\": " << dirs.size() << ",\n"
             << "  \"entries_scanned\": " << total.entriesScanned
             << ",\n"
             << "  \"entries_ok\": " << total.entriesOk << ",\n"
             << "  \"quarantined\": " << total.quarantined << ",\n"
             << "  \"tmp_removed\": " << total.tmpRemoved << "\n"
             << "}\n";
        if (json_path == "-") {
            std::cout << json.str();
        } else {
            std::ofstream out(json_path);
            if (!out) {
                std::cerr << "error: cannot write " << json_path
                          << "\n";
                return 2;
            }
            out << json.str();
        }
    }

    if (failed)
        return 2;
    if (expect_clean &&
        (total.quarantined > 0 || total.tmpRemoved > 0)) {
        std::cerr << "error: cache not clean: " << total.quarantined
                  << " quarantined, " << total.tmpRemoved
                  << " tmp removed\n";
        return 1;
    }
    return 0;
}
