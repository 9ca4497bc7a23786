#include "nn/sequential.h"

#include "tensor/tensor.h"

#include <sstream>

namespace xs::nn {

Layer& Sequential::add(LayerPtr layer, std::string name) {
    if (name.empty()) {
        std::ostringstream os;
        os << layer->type() << layers_.size();
        name = os.str();
    }
    tensor::check(by_name_.count(name) == 0,
                  "Sequential: duplicate layer name '" + name + "'");
    layer->set_name(name);
    by_name_[name] = layer.get();
    layers_.push_back(std::move(layer));
    return *layers_.back();
}

Tensor Sequential::forward(const Tensor& x, bool training) {
    Tensor h = x;
    for (auto& l : layers_) h = l->forward(h, training);
    return h;
}

Tensor Sequential::backward(const Tensor& dy) {
    Tensor g = dy;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

void Sequential::zero_grad() {
    for (auto& l : layers_)
        for (Param* p : l->params()) p->zero_grad();
}

Layer* Sequential::find(const std::string& name) {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
}

std::vector<Sequential::NamedParam> Sequential::named_params() {
    std::vector<NamedParam> out;
    for (auto& l : layers_)
        for (Param* p : l->params())
            out.push_back({l->name() + "." + p->name, p});
    return out;
}

std::vector<Param*> Sequential::params() {
    std::vector<Param*> out;
    for (auto& l : layers_)
        for (Param* p : l->params()) out.push_back(p);
    return out;
}

std::int64_t Sequential::param_count() const {
    std::int64_t n = 0;
    for (const auto& l : layers_)
        for (Param* p : const_cast<Layer&>(*l).params()) n += p->value.numel();
    return n;
}

void Sequential::for_each(const std::function<void(Layer&)>& fn) {
    for (auto& l : layers_) fn(*l);
}

std::string Sequential::summary() const {
    std::ostringstream os;
    for (const auto& l : layers_)
        os << l->name() << ": " << l->describe() << '\n';
    os << "total params: " << param_count() << '\n';
    return os.str();
}

}  // namespace xs::nn
