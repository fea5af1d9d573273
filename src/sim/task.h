// Move-only callables with inline storage for simulator events and network
// completion callbacks.
//
// Every capture on the replay's request path fits in the callable itself,
// so scheduling those events allocates nothing. libstdc++'s std::function
// only inlines captures up to two words, which made nearly every scheduled
// event a heap allocation; profiling the replay engine put that churn at
// the top of the hot loop. Captures larger than the inline size fall back
// to a single heap cell, exactly as std::function would; on the replay
// path that is only rare ones, such as a partitioned send's retry.
//
// The size is affordable because a Task is moved only twice: into the
// simulator's slab when scheduled and out of it when run. The event heap
// orders small records that name the slot (sim/simulator.h).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace webcc::sim {

template <typename Signature, std::size_t kInline>
class InlineFunction;

template <typename R, typename... Args, std::size_t kInline>
class InlineFunction<R(Args...), kInline> {
 public:
  static constexpr std::size_t kInlineBytes = kInline;

  InlineFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function
  InlineFunction(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (FitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  // NOLINTNEXTLINE(google-explicit-constructor)
  InlineFunction(std::nullptr_t) noexcept {}

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    // Move-constructs dst from src, then destroys src (heap mode: steals the
    // pointer). noexcept so slab growth never throws mid-move.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr bool FitsInline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  struct InlineOps {
    static R Invoke(void* self, Args&&... args) {
      return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* self) { static_cast<Fn*>(self)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static R Invoke(void* self, Args&&... args) {
      return (**static_cast<Fn**>(self))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
    }
    static void Destroy(void* self) { delete *static_cast<Fn**>(self); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// A simulator event. The largest hot-path capture is the server reply hop
// of Engine::ReplyToClient (this, the reply, its addressing and the two
// piggyback vectors): 136 bytes. With ops_ after the storage a Task is 144
// bytes.
using Task = InlineFunction<void(), 136>;

}  // namespace webcc::sim
