#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace rdmasem::sim {

// InlineFn — the schedule-path callable. A std::function replacement with
// a fixed small buffer: callables whose captures fit in kInlineBytes are
// stored in place (no heap traffic on the event hot path); larger ones
// fall back to a single boxed allocation. Move-only, invoked at most once
// per dispatch. Scheduled callbacks live in the engine's recycled
// callback slab (Engine::fns_), never in the event records themselves;
// the engine moves each one out of its slot to invoke it.
class InlineFn {
 public:
  // Four words: room for the pointer-and-integer bundles the model's
  // callbacks capture.
  static constexpr std::size_t kInlineBytes = 32;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  InlineFn(InlineFn&& o) noexcept { move_from(o); }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  // Null relocate/destroy entries are fast-path markers: relocate==nullptr
  // means "memcpy the buffer" (true for trivially-relocatable inline
  // callables and for all boxed ones, whose payload is a single pointer);
  // destroy==nullptr means "nothing to do". Every dispatched callback is
  // moved out of its slab slot once, so skipping the indirect calls keeps
  // that move to a memcpy.
  struct Ops {
    void (*invoke)(void*);
    // Move-construct into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename F>
  static void relocate_inline(void* dst, void* src) {
    F* s = static_cast<F*>(src);
    ::new (dst) F(std::move(*s));
    s->~F();
  }
  template <typename F>
  static void invoke_inline(void* p) {
    (*static_cast<F*>(p))();
  }
  template <typename F>
  static void destroy_inline(void* p) {
    static_cast<F*>(p)->~F();
  }
  template <typename F>
  static void invoke_boxed(void* p) {
    (**static_cast<F**>(p))();
  }
  template <typename F>
  static void destroy_boxed(void* p) {
    delete *static_cast<F**>(p);
  }

  template <typename F>
  static constexpr bool kTrivialReloc =
      std::is_trivially_move_constructible_v<F> &&
      std::is_trivially_destructible_v<F>;

  template <typename F>
  static constexpr Ops kInlineOps = {
      &invoke_inline<F>,
      kTrivialReloc<F> ? nullptr : &relocate_inline<F>,
      std::is_trivially_destructible_v<F> ? nullptr : &destroy_inline<F>,
  };

  template <typename F>
  static constexpr Ops kBoxedOps = {
      &invoke_boxed<F>,
      nullptr,  // the stored pointer relocates by memcpy
      &destroy_boxed<F>,
  };

  void move_from(InlineFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate == nullptr)
        std::memcpy(buf_, o.buf_, kInlineBytes);
      else
        ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace rdmasem::sim
