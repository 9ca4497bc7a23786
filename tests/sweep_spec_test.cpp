// SweepSpec grid expansion, spec-file/flag parsing, manifest line
// round-tripping, and per-cell seed stability (sweep/spec.h, sweep/manifest.h).
#include "sweep/manifest.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

namespace xs::sweep {
namespace {

util::Flags make_flags(std::vector<std::string> args) {
    std::vector<char*> argv;
    static const char* name = "sweep_spec_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    return util::Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(SweepSpec, ExpandIsFullGridWithRepeatInnermost) {
    SweepSpec spec;
    spec.variants = {"vgg11", "vgg16"};
    spec.class_counts = {10};
    spec.prunes = {{prune::Method::kNone, 0.0},
                   {prune::Method::kChannelFilter, 0.8}};
    spec.mitigations = {{false, false}, {false, true}};
    spec.sizes = {16, 64};
    spec.faults = {{0.0, 0.0}, {0.01, 0.001}};
    spec.repeats = 3;

    const std::vector<SweepCell> cells = spec.expand();
    ASSERT_EQ(cells.size(), 2u * 2u * 2u * 2u * 2u * 3u);

    std::set<std::string> ids;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].repeat, static_cast<std::int64_t>(i % 3));
        EXPECT_TRUE(ids.insert(cells[i].id()).second) << cells[i].id();
        // One group's cells are contiguous and share group_id.
        if (i % 3 != 0) {
            EXPECT_EQ(cells[i].group_id(), cells[i - 1].group_id());
        }
    }
    // Deterministic: a second expansion is identical.
    const std::vector<SweepCell> again = spec.expand();
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].id(), again[i].id());
}

TEST(SweepSpec, ParsePruneAndMitigationSyntax) {
    const auto flags = make_flags({"--prune=none,cf:0.8,xcs:0.6",
                                   "--mitigations=none,rearrange,wct,wct+r"});
    const SweepSpec spec = parse_sweep_spec(flags);
    ASSERT_EQ(spec.prunes.size(), 3u);
    EXPECT_EQ(spec.prunes[0].method, prune::Method::kNone);
    EXPECT_EQ(spec.prunes[1].method, prune::Method::kChannelFilter);
    EXPECT_DOUBLE_EQ(spec.prunes[1].sparsity, 0.8);
    EXPECT_EQ(spec.prunes[2].method, prune::Method::kXbarColumn);
    EXPECT_DOUBLE_EQ(spec.prunes[2].sparsity, 0.6);

    ASSERT_EQ(spec.mitigations.size(), 4u);
    EXPECT_EQ(spec.mitigations[0].name(), "none");
    EXPECT_EQ(spec.mitigations[1].name(), "rearrange");
    EXPECT_EQ(spec.mitigations[2].name(), "wct");
    EXPECT_TRUE(spec.mitigations[3].wct && spec.mitigations[3].rearrange);

    // A pruned method without a sparsity is a spec error.
    EXPECT_THROW(parse_sweep_spec(make_flags({"--prune=cf"})), std::exception);
    EXPECT_THROW(parse_sweep_spec(make_flags({"--mitigations=frobnicate"})),
                 std::exception);
}

// Values no grid can run are refused at parse time, each message naming its
// key: a crossbar size of 0 used to hang tile_xcs, and one below 1 reached
// tile_dense's bare "bad dimensions" abort. A negative sigma ran with no
// variation under its own label, a NaN one filled tiles with NaN, a level
// count of 1 ran continuous devices under a /q1 id, and a bad fault pair
// threw only once cells ran, after the grid's models had trained. A value
// that does not parse as a whole names its key too: --nf-only=ture used to
// run an inference grid.
TEST(SweepSpec, RejectsValuesNoGridCanRun) {
    const struct {
        const char* flag;
        const char* key;
    } bad[] = {{"--sizes=32,0", "sizes"},
               {"--sizes=-16", "sizes"},
               {"--parasitic-scales=1,-0.5", "parasitic-scales"},
               {"--parasitic-scales=nan", "parasitic-scales"},
               {"--sweep-repeats=0", "sweep-repeats"},
               {"--sigmas=0.1,-0.05", "sigmas"},
               {"--sigmas=nan", "sigmas"},
               {"--sigmas=inf", "sigmas"},
               {"--quant-levels=0,1", "quant-levels"},
               {"--quant-levels=-16", "quant-levels"},
               {"--faults=0:0,-0.01:0", "faults"},
               {"--faults=0:-0.01", "faults"},
               {"--faults=0.6:0.5", "faults"},
               {"--faults=nan:0", "faults"},
               // Values that do not parse as a whole.
               {"--sizes=16x", "sizes"},
               {"--classes=ten", "classes"},
               {"--sigmas=0.1x", "sigmas"},
               {"--prune=cf:0.8x", "prune"},
               {"--faults=0.01:x", "faults"},
               {"--sweep-repeats=2.5", "sweep-repeats"},
               {"--nf-only=ture", "nf-only"}};
    for (const auto& b : bad) {
        try {
            parse_sweep_spec(make_flags({b.flag}));
            ADD_FAILURE() << b.flag << " was accepted";
        } catch (const std::exception& e) {
            EXPECT_NE(std::string(e.what()).find(b.key), std::string::npos)
                << b.flag << ": " << e.what();
        }
    }
    const SweepSpec ok = parse_sweep_spec(
        make_flags({"--sizes=1", "--parasitic-scales=0", "--sigmas=0",
                    "--quant-levels=0,2", "--faults=0:0,0.5:0.5"}));
    EXPECT_EQ(ok.sizes, std::vector<std::int64_t>{1});
    EXPECT_EQ(ok.parasitic_scales, std::vector<double>{0.0});
    EXPECT_EQ(ok.sigmas, std::vector<double>{0.0});
    EXPECT_EQ(ok.quant_levels, (std::vector<std::int64_t>{0, 2}));
    ASSERT_EQ(ok.faults.size(), 2u);
    EXPECT_EQ(ok.faults[1].p_stuck_min + ok.faults[1].p_stuck_max, 1.0);
}

TEST(SweepSpec, SpecFileParsesAndCliWins) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "xs_spec_test.sweep").string();
    {
        std::ofstream out(path);
        out << "# paper grid\n"
            << "sizes = 16,32,64   # crossbar sizes\n"
            << "sigmas = 0.05,0.10\n"
            << "sweep-repeats = 5\n";
    }
    const auto flags = make_flags({"--spec=" + path, "--sizes=8"});
    const SweepSpec spec = parse_sweep_spec(flags);
    // CLI flag beats the file; file beats the default.
    ASSERT_EQ(spec.sizes.size(), 1u);
    EXPECT_EQ(spec.sizes[0], 8);
    ASSERT_EQ(spec.sigmas.size(), 2u);
    EXPECT_DOUBLE_EQ(spec.sigmas[0], 0.05);
    EXPECT_EQ(spec.repeats, 5);
    std::filesystem::remove(path);

    EXPECT_THROW(parse_sweep_spec(make_flags({"--spec=/nonexistent/x.sweep"})),
                 std::exception);

    // A misspelled axis key must fail loudly, not run the default grid.
    {
        std::ofstream out(path);
        out << "size = 16\n";  // typo: the key is 'sizes'
    }
    EXPECT_THROW(parse_sweep_spec(make_flags({"--spec=" + path})),
                 std::exception);

    // Solves always start cold; a spec asking for warm starts is refused
    // like any other unknown key instead of silently running cold.
    {
        std::ofstream out(path);
        out << "warm-start = true\n";
    }
    EXPECT_THROW(parse_sweep_spec(make_flags({"--spec=" + path})),
                 std::exception);
    std::filesystem::remove(path);
}

// One axis resolves CLI, then --spec file, then the driver's defaults map,
// then the SweepSpec default; the defaults map takes spec-file keys only.
TEST(SweepSpec, PrecedenceIsCliThenFileThenDefaultsThenBuiltIn) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "xs_spec_precedence.sweep")
            .string();
    {
        std::ofstream out(path);
        out << "sizes = 32\n";
    }
    const std::map<std::string, std::string> defaults = {{"sizes", "64"}};
    const std::string file = "--spec=" + path;
    using Sizes = std::vector<std::int64_t>;
    EXPECT_EQ(parse_sweep_spec(make_flags({file, "--sizes=8"}), defaults).sizes,
              Sizes{8});
    EXPECT_EQ(parse_sweep_spec(make_flags({file}), defaults).sizes, Sizes{32});
    // An empty value is unset, at the CLI as in the file.
    EXPECT_EQ(parse_sweep_spec(make_flags({file, "--sizes="}), defaults).sizes,
              Sizes{32});
    EXPECT_EQ(parse_sweep_spec(make_flags({}), defaults).sizes, Sizes{64});
    EXPECT_EQ(parse_sweep_spec(make_flags({})).sizes, SweepSpec().sizes);
    std::filesystem::remove(path);

    try {
        parse_sweep_spec(make_flags({}), {{"size", "16"}});
        ADD_FAILURE() << "an unknown defaults-map key was accepted";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("'size'"), std::string::npos)
            << e.what();
    }
}

std::vector<std::string> ids_of(const std::vector<SweepCell>& cells) {
    std::vector<std::string> ids;
    for (const SweepCell& c : cells) ids.push_back(c.id());
    return ids;
}

// A spec with parts is a union of products: its own product, then each
// part's expansion, less every cell whose id an earlier part emitted.
TEST(SweepSpec, UnionExpandsPartsInOrderAndDropsRepeatedGroups) {
    SweepSpec base;
    base.prunes = {{prune::Method::kNone, 0.0},
                   {prune::Method::kChannelFilter, 0.8}};
    base.sizes = {16, 32};
    base.repeats = 2;

    // A one-part spec expands as the plain product did: prune outer, size
    // inner, repeat innermost.
    std::vector<std::string> product;
    for (const PruneSetting& p : base.prunes)
        for (const std::int64_t size : {16, 32})
            for (std::int64_t r = 0; r < 2; ++r) {
                SweepCell c;
                c.prune = p;
                c.xbar_size = size;
                c.repeat = r;
                product.push_back(c.id());
            }
    EXPECT_EQ(ids_of(base.expand()), product);

    SweepSpec rearranged = base;  // shares no cell with base
    rearranged.prunes = {{prune::Method::kChannelFilter, 0.8}};
    rearranged.mitigations = {{false, true}};
    SweepSpec overlap = base;  // its x16 groups repeat base's
    overlap.sizes = {64, 16};
    SweepSpec spec = base;
    spec.parts = {rearranged, overlap, base};

    std::vector<std::string> expected = product;
    for (const std::string& id : ids_of(rearranged.expand()))
        expected.push_back(id);
    for (const SweepCell& c : overlap.expand())
        if (c.xbar_size == 64) expected.push_back(c.id());
    const std::vector<SweepCell> cells = spec.expand();
    EXPECT_EQ(ids_of(cells), expected);
    // Whole repeat groups, in order: the runner's index / repeats units.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].repeat, static_cast<std::int64_t>(i % 2));
        if (i % 2 == 1) {
            EXPECT_EQ(cells[i].group_id(), cells[i - 1].group_id());
        }
    }
    EXPECT_NE(spec.describe().find("-> 16 cells"), std::string::npos)
        << spec.describe();

    // nf_only and repeats are spec-wide.
    SweepSpec nf = spec;
    nf.parts[1].nf_only = true;
    EXPECT_THROW(nf.expand(), std::invalid_argument);
    SweepSpec more = spec;
    more.parts[0].repeats = 3;
    EXPECT_THROW(more.expand(), std::invalid_argument);
}

TEST(SweepManifest, LineRoundTripsDoublesExactly) {
    CellResult r;
    r.accuracy = 100.0 / 3.0;
    r.nf_mean = 0.012345678901234567;
    r.energy_pj = 98765.4321012345;
    r.software_acc = 83.33333333333333;
    r.tiles = 1234567;
    r.solver_failures = 3;
    r.wall_ms = 17.25;
    r.backend = "fast";

    const std::string line = encode_manifest_line("grp/x64/r1", r);
    std::string id;
    CellResult back;
    ASSERT_TRUE(decode_manifest_line(line, id, back));
    EXPECT_EQ(id, "grp/x64/r1");
    // Bit-exact round trip — the resume path aggregates from these.
    EXPECT_EQ(back.accuracy, r.accuracy);
    EXPECT_EQ(back.nf_mean, r.nf_mean);
    EXPECT_EQ(back.energy_pj, r.energy_pj);
    EXPECT_EQ(back.software_acc, r.software_acc);
    EXPECT_EQ(back.tiles, r.tiles);
    EXPECT_EQ(back.solver_failures, r.solver_failures);
    EXPECT_EQ(back.backend, "fast");
    EXPECT_EQ(encode_manifest_line(id, back), line);

    // Manifests predating the backend axis decode to "circuit".
    CellResult legacy;
    legacy.backend.clear();
    const std::string old_line = encode_manifest_line("grp/x64/r0", CellResult{});
    std::string legacy_id;
    // Strip the backend field to simulate a pre-axis line.
    std::string stripped = old_line;
    const auto bk = stripped.find(",\"backend\":\"circuit\"");
    ASSERT_NE(bk, std::string::npos);
    stripped.erase(bk, std::strlen(",\"backend\":\"circuit\""));
    ASSERT_TRUE(decode_manifest_line(stripped, legacy_id, legacy));
    EXPECT_EQ(legacy.backend, "circuit");
}

TEST(SweepManifest, FailedLineRoundTripsTaxonomy) {
    CellResult r;
    r.status = "failed";
    r.reason = "worker killed by signal 9 (said \"boom\"\nmid-line)";
    r.attempts = 3;
    r.backend = "fast";

    const std::string line = encode_manifest_line("grp/x32/r1", r);
    std::string id;
    CellResult back;
    ASSERT_TRUE(decode_manifest_line(line, id, back));
    EXPECT_EQ(id, "grp/x32/r1");
    EXPECT_TRUE(back.failed());
    EXPECT_EQ(back.status, "failed");
    // Newlines are flattened on encode; quotes survive the escaping.
    EXPECT_EQ(back.reason, "worker killed by signal 9 (said \"boom\" mid-line)");
    EXPECT_EQ(back.attempts, 3);
    EXPECT_EQ(back.backend, "fast");
    // Failed lines carry no result numbers.
    EXPECT_EQ(line.find("accuracy"), std::string::npos);
}

TEST(SweepManifest, LegacyUnconvergedSpellingDecodes) {
    CellResult r;
    r.solver_failures = 7;
    std::string line = encode_manifest_line("grp/r0", r);
    const auto pos = line.find("solver_failures");
    ASSERT_NE(pos, std::string::npos);
    line.replace(pos, std::strlen("solver_failures"), "unconverged");

    std::string id;
    CellResult back;
    ASSERT_TRUE(decode_manifest_line(line, id, back));
    EXPECT_EQ(back.solver_failures, 7);

    // And a line predating the field entirely decodes to 0.
    std::string old_line = encode_manifest_line("grp/r0", CellResult{});
    const auto f = old_line.find(",\"solver_failures\":0");
    ASSERT_NE(f, std::string::npos);
    old_line.erase(f, std::strlen(",\"solver_failures\":0"));
    ASSERT_TRUE(decode_manifest_line(old_line, id, back));
    EXPECT_EQ(back.solver_failures, 0);
}

TEST(SweepManifest, MidLineCorruptionIsRejectedNotChimeraParsed) {
    CellResult a, b;
    a.accuracy = 10.0;
    b.accuracy = 90.0;
    const std::string la = encode_manifest_line("cell-a/r0", a);
    const std::string lb = encode_manifest_line("cell-b/r0", b);
    // A crash mid-append leaves half of record A with record B glued on —
    // one physical line that still starts with '{' and ends with '}'.
    const std::string torn = la.substr(0, la.size() / 2) + lb;
    std::string id;
    CellResult back;
    EXPECT_FALSE(decode_manifest_line(torn, id, back));

    // The loader counts it as skipped instead of resuming a chimera.
    const std::string path =
        (std::filesystem::temp_directory_path() / "xs_manifest_torn.jsonl")
            .string();
    {
        std::ofstream out(path);
        out << "{\"sweep_config\":\"fp\"}\n" << torn << '\n' << la << '\n';
    }
    const ManifestLoad load = load_manifest_file(path);
    EXPECT_EQ(load.config, "fp");
    EXPECT_EQ(load.skipped_lines, 1);
    ASSERT_EQ(load.results.size(), 1u);
    EXPECT_EQ(load.results.at("cell-a/r0").accuracy, 10.0);
    std::filesystem::remove(path);
}

TEST(SweepManifest, LoadSkipsTruncatedAndMalformedLines) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "xs_manifest_test.jsonl")
            .string();
    CellResult r;
    r.accuracy = 50.0;
    {
        std::ofstream out(path);
        out << encode_manifest_line("a/r0", r) << '\n';
        out << "not json\n";
        r.accuracy = 75.0;
        out << encode_manifest_line("a/r0", r) << '\n';  // duplicate: last wins
        out << encode_manifest_line("b/r1", r) << '\n';
        out << "{\"cell\":\"trunc";  // crash mid-write
    }
    const auto loaded = load_manifest(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.at("a/r0").accuracy, 75.0);
    EXPECT_EQ(loaded.at("b/r1").accuracy, 75.0);
    std::filesystem::remove(path);
}

TEST(SweepSpec, BackendAxisExpandsParsesAndSharesSeeds) {
    const SweepSpec parsed =
        parse_sweep_spec(make_flags({"--backends=circuit,fast,ideal"}));
    ASSERT_EQ(parsed.backends.size(), 3u);
    EXPECT_EQ(parsed.backends[0], xbar::BackendKind::kCircuit);
    EXPECT_EQ(parsed.backends[1], xbar::BackendKind::kFast);
    EXPECT_EQ(parsed.backends[2], xbar::BackendKind::kIdeal);
    EXPECT_THROW(parse_sweep_spec(make_flags({"--backends=warp"})),
                 std::exception);

    SweepSpec spec;
    spec.sizes = {16};
    spec.backends = {xbar::BackendKind::kCircuit, xbar::BackendKind::kFast};
    spec.repeats = 2;
    const std::vector<SweepCell> cells = spec.expand();
    ASSERT_EQ(cells.size(), 4u);  // 2 backends × 2 repeats
    EXPECT_EQ(cells[0].backend, xbar::BackendKind::kCircuit);
    EXPECT_EQ(cells[2].backend, xbar::BackendKind::kFast);
    // Distinct manifest identities…
    EXPECT_NE(cells[0].group_id(), cells[2].group_id());
    EXPECT_NE(cells[2].group_id().find("bk-fast"), std::string::npos);
    // …and circuit ids keep their pre-backend-axis form, so manifests
    // recorded before the axis existed still resume.
    EXPECT_EQ(cells[0].group_id().find("bk-"), std::string::npos);
    EXPECT_EQ(cells[0].group_id(), cells[0].seed_key());
    // …but identical stochastic draws: the seed ignores the backend axis so
    // a fast-vs-circuit accuracy gap is pure model error.
    EXPECT_EQ(cell_seed(11, cells[0]), cell_seed(11, cells[2]));
    EXPECT_NE(cell_seed(11, cells[0]), cell_seed(11, cells[1]));
}

TEST(SweepSpec, QuantAndCompensationAxesExpandParseAndKeepLegacyIds) {
    const SweepSpec parsed = parse_sweep_spec(
        make_flags({"--quant-levels=0,64,16",
                    "--mitigations=none,comp,rearrange+comp,wct+r+comp"}));
    ASSERT_EQ(parsed.quant_levels.size(), 3u);
    EXPECT_EQ(parsed.quant_levels[0], 0);
    EXPECT_EQ(parsed.quant_levels[1], 64);
    EXPECT_EQ(parsed.quant_levels[2], 16);
    ASSERT_EQ(parsed.mitigations.size(), 4u);
    EXPECT_EQ(parsed.mitigations[1].name(), "comp");
    EXPECT_EQ(parsed.mitigations[2].name(), "rearrange+comp");
    EXPECT_TRUE(parsed.mitigations[3].wct && parsed.mitigations[3].rearrange &&
                parsed.mitigations[3].compensate);

    SweepSpec spec;
    spec.sizes = {16};
    spec.quant_levels = {0, 64};
    spec.repeats = 1;
    const std::vector<SweepCell> cells = spec.expand();
    ASSERT_EQ(cells.size(), 2u);
    // Continuous-write cells keep their pre-axis ids (manifests recorded
    // before the axis existed still resume); quantized cells are distinct.
    EXPECT_EQ(cells[0].group_id().find("/q"), std::string::npos);
    EXPECT_NE(cells[1].group_id().find("/q64"), std::string::npos);
    EXPECT_NE(cell_seed(11, cells[0]), cell_seed(11, cells[1]));
}

TEST(SweepSeed, DeterministicPerCellIdentity) {
    SweepCell a;
    a.variant = "vgg11";
    a.xbar_size = 64;
    SweepCell b = a;
    EXPECT_EQ(cell_seed(11, a), cell_seed(11, b));
    b.repeat = 1;
    EXPECT_NE(cell_seed(11, a), cell_seed(11, b));
    b = a;
    b.xbar_size = 32;
    EXPECT_NE(cell_seed(11, a), cell_seed(11, b));
    EXPECT_NE(cell_seed(11, a), cell_seed(12, a));
}

}  // namespace
}  // namespace xs::sweep
