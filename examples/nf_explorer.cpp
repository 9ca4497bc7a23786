// NF explorer: sweep crossbar size and conductance level and print the
// non-ideality factor of a uniform crossbar — a direct view of the physics
// that drives everything else (paper §II-A: NF = (I_ideal − I_ni)/I_ideal).
//
//   ./nf_explorer [--sizes=16,32,64,128] [--levels=8]
#include "util/csv.h"
#include "util/flags.h"
#include "util/log.h"
#include "xbar/degrade.h"

#include <cstdio>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    const auto sizes = flags.get_int_list("sizes", {16, 32, 64, 128});
    const std::int64_t levels = flags.get_int("levels", 8);
    flags.check_all_read();
    if (levels < 2) {
        util::log_error("nf_explorer: --levels must be at least 2 (G_MIN and "
                        "G_MAX), got " + std::to_string(levels));
        return 1;
    }
    for (const auto size : sizes)
        if (size < 1) {
            util::log_error("nf_explorer: --sizes must be at least 1, got " +
                            std::to_string(size));
            return 1;
        }

    std::printf("NF of a uniform crossbar (all devices at conductance G)\n");
    std::vector<std::string> header{"G (uS)"};
    for (const auto size : sizes)
        header.push_back(std::to_string(size) + "x" + std::to_string(size));
    util::TextTable table(std::move(header));

    xbar::DeviceConfig device;
    device.sigma_variation = 0.0;  // deterministic physics only

    for (std::int64_t level = 0; level < levels; ++level) {
        const double g = device.g_min() +
                         (device.g_max() - device.g_min()) *
                             static_cast<double>(level) /
                             static_cast<double>(levels - 1);
        std::vector<std::string> row{util::fmt(g * 1e6, 1)};
        for (const auto size : sizes) {
            xbar::CrossbarConfig config;
            config.size = size;
            config.device = device;
            tensor::Tensor gmat({size, size}, static_cast<float>(g));
            row.push_back(util::fmt(xbar::non_ideality_factor(gmat, config), 4));
        }
        table.add_row(row);
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("Low-conductance synapses suffer far less IR-drop — the fact\n"
                "both mitigations (R and WCT) exploit.\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
