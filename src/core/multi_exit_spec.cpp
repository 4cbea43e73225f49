#include "core/multi_exit_spec.hpp"

namespace imx::core {

namespace {

using compress::Junction;
using compress::LayerDesc;
using compress::LayerKind;
using compress::NetworkDesc;

/// Shared 11-layer / 9-junction topology of the paper network family.
/// Layer order: Conv1, ConvB1, FC-B1, Conv2, ConvB2, FC-B21, FC-B22,
///              Conv3, Conv4, FC-B31, FC-B32.
NetworkDesc make_desc_from_costs(
    const std::array<std::int64_t, 11>& macs,
    const std::array<std::int64_t, 11>& weights,
    const std::array<std::int64_t, 11>& biases,
    const std::array<std::pair<int, int>, 11>& channels) {
    const std::array<const char*, 11> names = {
        "Conv1", "ConvB1", "FC-B1",  "Conv2",  "ConvB2", "FC-B21",
        "FC-B22", "Conv3", "Conv4",  "FC-B31", "FC-B32"};
    const std::array<LayerKind, 11> kinds = {
        LayerKind::kConv, LayerKind::kConv, LayerKind::kFc,
        LayerKind::kConv, LayerKind::kConv, LayerKind::kFc,
        LayerKind::kFc,   LayerKind::kConv, LayerKind::kConv,
        LayerKind::kFc,   LayerKind::kFc};
    // in/out junction ids per layer (see junction list below; -1 = logits).
    const std::array<int, 11> in_j = {0, 1, 2, 1, 3, 4, 5, 3, 6, 7, 8};
    const std::array<int, 11> out_j = {1, 2, -1, 3, 4, 5, -1, 6, 7, 8, -1};

    NetworkDesc desc;
    for (std::size_t i = 0; i < names.size(); ++i) {
        LayerDesc layer;
        layer.name = names[i];
        layer.kind = kinds[i];
        layer.base_macs = macs[i];
        layer.weight_params = weights[i];
        layer.bias_params = biases[i];
        layer.in_count = channels[i].first;
        layer.out_count = channels[i].second;
        layer.in_junction = in_j[i];
        layer.out_junction = out_j[i];
        desc.layers.push_back(std::move(layer));
    }
    desc.junctions = {
        Junction{-1, {0}},      // J0: image -> Conv1
        Junction{0, {1, 3}},    // J1: Conv1 -> ConvB1, Conv2 (branch point)
        Junction{1, {2}},       // J2: ConvB1 -> FC-B1
        Junction{3, {4, 7}},    // J3: Conv2 -> ConvB2, Conv3 (branch point)
        Junction{4, {5}},       // J4: ConvB2 -> FC-B21
        Junction{5, {6}},       // J5: FC-B21 -> FC-B22
        Junction{7, {8}},       // J6: Conv3 -> Conv4
        Junction{8, {9}},       // J7: Conv4 -> FC-B31
        Junction{9, {10}},      // J8: FC-B31 -> FC-B32
    };
    desc.num_exits = kNumExits;
    desc.exit_paths = {
        {0, 1, 2},           // exit 1: Conv1, ConvB1, FC-B1
        {0, 3, 4, 5, 6},     // exit 2: Conv1, Conv2, ConvB2, FC-B21, FC-B22
        {0, 3, 7, 8, 9, 10}  // exit 3: Conv1, Conv2, Conv3, Conv4, FC-B31/32
    };
    desc.validate();
    return desc;
}

}  // namespace

compress::NetworkDesc make_paper_network_desc() {
    // MAC/param table of docs/reproducing-figures.md, Calibration (matches
    // the paper's per-exit FLOPs within ~1 %).
    return make_desc_from_costs(
        /*macs=*/{352800, 85536, 3960, 705600, 148176, 54180, 4300, 254016,
                  254016, 56160, 2600},
        /*weights=*/{450, 594, 3960, 3600, 3024, 54180, 4300, 5184, 5184,
                     56160, 2600},
        /*biases=*/{6, 11, 10, 24, 14, 430, 10, 24, 24, 260, 10},
        /*channels=*/{{{3, 6}, {6, 11}, {396, 10}, {6, 24}, {24, 14},
                       {126, 430}, {430, 10}, {24, 24}, {24, 24}, {216, 260},
                       {260, 10}}});
}

compress::Constraints paper_constraints() {
    compress::Constraints c;
    c.f_target_macs = kFlopsTargetMacs;
    c.s_target_bytes = kSizeTargetBytes;
    return c;
}

compress::Policy reference_nonuniform_policy() {
    const NetworkDesc desc = make_paper_network_desc();
    compress::Policy policy = compress::Policy::uniform(desc.num_layers(), 1.0, 8, 8);
    struct Entry {
        const char* name;
        double alpha;
        int w_bits;
        int a_bits;
    };
    // Fig. 4 shape: shallow layers preserved more, convs at 8-bit, the two
    // large FCs binarized, small FCs at mid bitwidth.
    const Entry entries[] = {
        {"Conv1", 0.85, 8, 8}, {"ConvB1", 0.60, 8, 8}, {"FC-B1", 0.70, 4, 6},
        {"Conv2", 0.70, 8, 8}, {"ConvB2", 0.60, 8, 8}, {"FC-B21", 0.45, 1, 6},
        {"FC-B22", 0.70, 4, 6}, {"Conv3", 0.50, 8, 8}, {"Conv4", 0.45, 8, 8},
        {"FC-B31", 0.40, 1, 6}, {"FC-B32", 0.75, 4, 6},
    };
    for (const Entry& e : entries) {
        const auto idx = static_cast<std::size_t>(desc.layer_index(e.name));
        policy[idx] = compress::LayerPolicy{e.alpha, e.w_bits, e.a_bits};
    }
    return policy;
}

compress::Policy uniform_baseline_policy() {
    const NetworkDesc desc = make_paper_network_desc();
    return compress::make_uniform_for_targets(desc, paper_constraints());
}

}  // namespace imx::core
