#include "sweep/supervisor.h"

#include "sweep/wire.h"
#include "util/faultinject.h"
#include "util/log.h"
#include "util/metrics.h"

#include <string>

#include <unistd.h>

namespace xs::sweep {

int worker_main(core::ExperimentContext& ctx, const SweepSpec& spec,
                int in_fd, int out_fd) {
    util::set_log_prefix("[w" + std::to_string(::getpid()) + "] ");
    const std::vector<SweepCell> cells = spec.expand();
    if (!wire::write_message(out_fd, wire::MsgType::kHello, "")) return 1;

    wire::Message msg;
    while (wire::read_message(in_fd, msg)) {
        if (msg.type == wire::MsgType::kShutdown) {
            // Parting gift: this process's telemetry, merged by the
            // coordinator into the sweep-wide snapshot.
            wire::write_message(
                out_fd, wire::MsgType::kMetrics,
                util::metrics::to_json(util::metrics::snapshot()));
            break;
        }
        if (msg.type != wire::MsgType::kDeal) {
            util::log_error("worker: unexpected message type " +
                            std::to_string(static_cast<int>(msg.type)));
            return 1;
        }
        std::int64_t index = -1, attempt = 0;
        if (!wire::decode_deal(msg.payload, index, attempt) || index < 0 ||
            index >= static_cast<std::int64_t>(cells.size())) {
            util::log_error("worker: malformed deal '" + msg.payload + "'");
            return 1;
        }
        const SweepCell& cell = cells[static_cast<std::size_t>(index)];
        XS_DLOG("worker: dealt cell " + cell.id() + " (attempt " +
                std::to_string(attempt + 1) + ")");
        try {
            // Fault-injection seam: crash/hang/fail here, by grid index, on
            // the configured attempt — the agent's and coordinator's
            // recovery paths are exercised by real SIGKILLs and real
            // silence, not mocks.
            util::fault::execute(util::fault::at("cell", index, attempt),
                                 "cell", index);
            CellResult r = run_sweep_cell(ctx, spec, cell);
            r.attempts = attempt + 1;
            if (!wire::write_message(out_fd, wire::MsgType::kAck,
                                     encode_manifest_line(cell.id(), r)))
                return 1;
        } catch (const std::exception& e) {
            // Recoverable: report and stay alive for the next deal. The
            // coordinator owns the retry/quarantine decision.
            util::log_warn("worker: cell " + cell.id() + " failed: " +
                           e.what());
            if (!wire::write_message(out_fd, wire::MsgType::kFail, e.what()))
                return 1;
        }
    }
    return 0;
}

std::vector<std::string> worker_command_from_argv(int argc, char** argv) {
    std::vector<std::string> cmd;
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
        exe[n] = '\0';
        cmd.push_back(exe);
    } else {
        cmd.push_back(argc > 0 ? argv[0] : "");
    }
    const auto supervision_flag = [](const std::string& a) {
        return a == "--worker" || a.rfind("--worker=", 0) == 0 ||
               a.rfind("--workers", 0) == 0 || a.rfind("--wire-in", 0) == 0 ||
               a.rfind("--wire-out", 0) == 0 || a.rfind("--agent", 0) == 0;
    };
    for (int i = 1; i < argc; ++i)
        if (!supervision_flag(argv[i])) cmd.push_back(argv[i]);
    return cmd;
}

}  // namespace xs::sweep
