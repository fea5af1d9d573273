#include "scopes.h"

#include <algorithm>

namespace webcc::lint {
namespace {

const std::set<std::string, std::less<>>& Keywords() {
  static const std::set<std::string, std::less<>> kKeywords = {
      "if",     "for",    "while",   "switch",        "catch",
      "return", "sizeof", "alignof", "static_assert", "decltype",
      "new",    "delete", "do",      "else",          "co_return",
      "co_await"};
  return kKeywords;
}

bool IsSpecifier(std::string_view word) {
  return word == "const" || word == "noexcept" || word == "override" ||
         word == "final" || word == "mutable" || word == "try" ||
         word == "volatile" || word == "constexpr";
}

bool IsAnnotationMacro(std::string_view word) {
  return word.substr(0, 6) == "WEBCC_";
}

// Enum types whose switches must stay default-free so -Wswitch can prove
// exhaustiveness (rule config for enum-switch-default). Extend when adding
// a protocol-level enum.
bool IsProtocolEnumType(std::string_view word) {
  static const std::set<std::string, std::less<>> kTypes = {
      "Protocol",  "LeaseMode",         "MessageType",
      "EventType", "FaultKind",         "HitAction",
      "WriteCompleteKind", "ServeKind", "IoError",
      "TraceName", "EvictionPolicyKind", "Completion"};
  return kTypes.count(word) != 0;
}

// Bare variable spellings that conventionally hold protocol enums here.
bool IsEnumishIdentifier(std::string_view word) {
  return word == "protocol" || word == "mode" || word == "kind" ||
         word == "name" || word == "type";
}

struct Builder {
  ScopeModel model;

  const Token& Tok(std::size_t k) const { return model.Tok(k); }
  bool IsPunct(std::size_t k, std::string_view p) const {
    const Token& t = Tok(k);
    return t.kind == TokKind::kPunct && t.text == p;
  }
  bool IsIdent(std::size_t k) const {
    return Tok(k).kind == TokKind::kIdent;
  }
  bool IsIdent(std::size_t k, std::string_view word) const {
    const Token& t = Tok(k);
    return t.kind == TokKind::kIdent && t.text == word;
  }

  // Matching ')' / ']' / '>' for the opener at `open`; returns `end` (the
  // exclusive bound) when unbalanced.
  std::size_t FindClose(std::size_t open, std::size_t end, char oc,
                        char cc) const {
    int depth = 0;
    for (std::size_t k = open; k < end; ++k) {
      const Token& t = Tok(k);
      if (t.kind != TokKind::kPunct) continue;
      if (t.text.size() == 1 && t.text[0] == oc) ++depth;
      if (t.text.size() == 1 && t.text[0] == cc && --depth == 0) return k;
    }
    return end;
  }

  // Matching '(' for the ')' at `close`, scanning back to `begin`.
  std::size_t FindOpenBack(std::size_t close, std::size_t begin) const {
    int depth = 0;
    for (std::size_t k = close + 1; k-- > begin;) {
      if (IsPunct(k, ")")) ++depth;
      if (IsPunct(k, "(") && --depth == 0) return k;
    }
    return close;  // unbalanced
  }

  // --- head classification --------------------------------------------------

  bool HeadHasKeyword(std::size_t hb, std::size_t he,
                      std::string_view word) const {
    for (std::size_t k = hb; k < he; ++k) {
      if (IsIdent(k, word)) return true;
    }
    return false;
  }

  // `[captures](params) specifiers -> ret {`: true when the tail of the
  // head is a lambda introducer chain ending exactly at `he`.
  bool IsLambdaHead(std::size_t hb, std::size_t he, bool* no_tsa) const {
    for (std::size_t k = he; k-- > hb;) {
      if (!IsPunct(k, "[")) continue;
      std::size_t j = FindClose(k, he, '[', ']');
      if (j >= he) continue;
      ++j;  // past ']'
      if (j < he && IsPunct(j, "(")) {
        j = FindClose(j, he, '(', ')');
        if (j >= he) continue;
        ++j;
      }
      bool tail_ok = true;
      while (j < he) {
        const Token& t = Tok(j);
        if (t.kind == TokKind::kIdent &&
            (IsSpecifier(t.text) || IsAnnotationMacro(t.text))) {
          if (IsAnnotationMacro(t.text) && no_tsa != nullptr &&
              t.text == "WEBCC_NO_THREAD_SAFETY_ANALYSIS") {
            *no_tsa = true;
          }
          ++j;
          if (j < he && IsPunct(j, "(")) j = FindClose(j, he, '(', ')') + 1;
        } else if (t.kind == TokKind::kPunct && t.text == "->") {
          j = he;  // trailing return type: consume the rest
        } else {
          tail_ok = false;
          break;
        }
      }
      if (tail_ok && j >= he) return true;
    }
    return false;
  }

  // Function-definition heuristic: an id-expression directly before a '('
  // whose matching ')' is followed only by specifiers, annotation macros,
  // a ctor init list (':') or a trailing return ('->'). Returns the
  // unqualified name and the last qualifier (the class for `C::f`).
  bool ParseFunctionHead(std::size_t hb, std::size_t he, std::string* name,
                         std::string* qualifier) const {
    for (std::size_t k = hb; k < he; ++k) {
      if (!IsIdent(k) || IsPunct(k, "(")) continue;
      const std::string& word = Tok(k).text;
      if (Keywords().count(word) != 0 || IsAnnotationMacro(word)) continue;
      if (k + 1 >= he || !IsPunct(k + 1, "(")) continue;
      if (k > hb && (IsPunct(k - 1, ".") || IsPunct(k - 1, "->"))) continue;
      const std::size_t close = FindClose(k + 1, he, '(', ')');
      if (close >= he) continue;  // '(' spills past the brace: not a head
      // Validate the suffix after the parameter list.
      bool ok = true;
      for (std::size_t j = close + 1; j < he;) {
        const Token& t = Tok(j);
        if (t.kind == TokKind::kIdent &&
            (IsSpecifier(t.text) || IsAnnotationMacro(t.text))) {
          ++j;
          if (j < he && IsPunct(j, "(")) j = FindClose(j, he, '(', ')') + 1;
        } else if (t.kind == TokKind::kPunct &&
                   (t.text == ":" || t.text == "->")) {
          j = he;  // ctor init list / trailing return: consume the rest
        } else if (t.kind == TokKind::kPunct && t.text == "&") {
          ++j;  // ref-qualified member function
        } else {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      // Walk the id-expression back: `~Name` and `Qual::...::Name`.
      std::size_t nb = k;
      *name = word;
      if (nb > hb && IsPunct(nb - 1, "~")) {
        *name = "~" + *name;
        --nb;
      }
      qualifier->clear();
      while (nb >= hb + 2 && IsPunct(nb - 1, "::") && IsIdent(nb - 2)) {
        *qualifier = Tok(nb - 2).text;  // keep the innermost qualifier
        nb -= 2;
      }
      return true;
    }
    return false;
  }

  Scope ClassifyHead(std::size_t hb, std::size_t he, int parent,
                     int open_line) {
    Scope s;
    s.parent = parent;
    s.line = open_line;
    s.head_begin = hb;
    s.head_end = he;
    const Scope* up =
        parent >= 0 ? &model.scopes[static_cast<std::size_t>(parent)] : nullptr;
    if (up != nullptr) {
      s.in_dump = up->in_dump;
      s.no_tsa = up->no_tsa;
    }

    if (hb >= he) return s;  // bare block

    if (HeadHasKeyword(hb, he, "namespace")) {
      s.kind = ScopeKind::kNamespace;
      return s;
    }
    if (HeadHasKeyword(hb, he, "enum")) {
      s.kind = ScopeKind::kEnum;
      return s;
    }
    if (HeadHasKeyword(hb, he, "switch")) {
      s.kind = ScopeKind::kSwitch;
      for (std::size_t k = hb; k < he; ++k) {
        if (!IsIdent(k, "switch")) continue;
        if (k + 1 >= he || !IsPunct(k + 1, "(")) break;
        const std::size_t close = FindClose(k + 1, he, '(', ')');
        // Enum-typed when the condition names a protocol enum type, or is
        // exactly one conventionally-enum identifier.
        std::size_t idents = 0;
        for (std::size_t j = k + 2; j < close; ++j) {
          if (!IsIdent(j)) continue;
          ++idents;
          if (IsProtocolEnumType(Tok(j).text)) s.switch_enum = true;
        }
        if (close == k + 3 && idents == 1 &&
            IsEnumishIdentifier(Tok(k + 2).text)) {
          s.switch_enum = true;
        }
        break;
      }
      return s;
    }
    bool no_tsa = false;
    if (IsLambdaHead(hb, he, &no_tsa)) {
      s.kind = ScopeKind::kLambda;
      s.no_tsa = s.no_tsa || no_tsa;
      if (up != nullptr) s.class_name = up->class_name;
      return s;
    }
    std::string name, qualifier;
    if (ParseFunctionHead(hb, he, &name, &qualifier)) {
      s.kind = ScopeKind::kFunction;
      s.name = name;
      s.class_name = qualifier;
      if (s.class_name.empty() && up != nullptr) {
        // Inline member definition: the enclosing class scope names it.
        for (int p = parent; p >= 0;
             p = model.scopes[static_cast<std::size_t>(p)].parent) {
          const Scope& ps = model.scopes[static_cast<std::size_t>(p)];
          if (ps.kind == ScopeKind::kFunction || ps.kind == ScopeKind::kLambda) {
            break;  // a nested local class/function: stop at the function
          }
          if (ps.kind == ScopeKind::kClass) {
            s.class_name = ps.name;
            break;
          }
        }
      }
      s.ctor_dtor = !s.class_name.empty() &&
                    (name == s.class_name || name == "~" + s.class_name);
      if (IsDumpFunctionName(name)) s.in_dump = true;
      if (HeadHasKeyword(hb, he, "WEBCC_NO_THREAD_SAFETY_ANALYSIS")) {
        s.no_tsa = true;
      }
      return s;
    }
    // `class`/`struct` after the function check, so `template <class T>
    // void F()` classifies as a function, and macro-decorated class heads
    // (`class WEBCC_CAPABILITY("mutex") Mutex`) still land here.
    for (std::size_t k = he; k-- > hb;) {
      if (!IsIdent(k)) continue;
      const std::string& word = Tok(k).text;
      if (word != "class" && word != "struct" && word != "union") continue;
      s.kind = ScopeKind::kClass;
      // Name: the first identifier after the keyword that is not an
      // annotation macro (skipping any macro argument list) and not a
      // specifier; stop at ':' (base clause) or '<' (specialization).
      for (std::size_t j = k + 1; j < he; ++j) {
        const Token& t = Tok(j);
        if (t.kind == TokKind::kPunct &&
            (t.text == ":" || t.text == "<" || t.text == "{")) {
          break;
        }
        if (t.kind != TokKind::kIdent) continue;
        if (IsAnnotationMacro(t.text)) {
          if (j + 1 < he && IsPunct(j + 1, "(")) {
            j = FindClose(j + 1, he, '(', ')');
          }
          continue;
        }
        if (t.text == "final" || t.text == "alignas") continue;
        s.name = t.text;
        break;
      }
      if (!s.name.empty()) return s;
      s.kind = ScopeKind::kBlock;
      break;
    }
    return s;
  }

  // --- pass 1: scopes ---------------------------------------------------------

  void BuildScopes() {
    std::vector<int> stack;
    std::size_t stmt_begin = 0;
    const std::size_t n = model.code.size();
    model.scope_of.assign(n, -1);
    for (std::size_t k = 0; k < n; ++k) {
      model.scope_of[k] = stack.empty() ? -1 : stack.back();
      const Token& t = Tok(k);
      if (t.kind != TokKind::kPunct || t.text.size() != 1) continue;
      switch (t.text[0]) {
        case '{': {
          Scope s = ClassifyHead(stmt_begin, k,
                                 stack.empty() ? -1 : stack.back(), t.line);
          s.body_begin = k + 1;
          s.body_end = n;  // patched at the matching '}'
          model.scopes.push_back(s);
          stack.push_back(static_cast<int>(model.scopes.size()) - 1);
          stmt_begin = k + 1;
          break;
        }
        case '}': {
          if (!stack.empty()) {
            model.scopes[static_cast<std::size_t>(stack.back())].body_end = k;
            stack.pop_back();
          }
          stmt_begin = k + 1;
          break;
        }
        case ';':
          stmt_begin = k + 1;
          break;
        default:
          break;
      }
    }
  }

  // --- pass 2: locks and annotations -----------------------------------------

  std::string ClassAt(std::size_t k) const {
    for (int s = model.scope_of[k]; s >= 0;
         s = model.scopes[static_cast<std::size_t>(s)].parent) {
      const Scope& sc = model.scopes[static_cast<std::size_t>(s)];
      if (sc.kind == ScopeKind::kClass) return sc.name;
      if (sc.kind == ScopeKind::kFunction || sc.kind == ScopeKind::kLambda) {
        if (!sc.class_name.empty()) return sc.class_name;
      }
    }
    return "";
  }

  std::string Canonical(std::string_view expr, const std::string& cls) const {
    // Bare members get class-qualified so the acquired-before graph keys
    // the same lock identically across translation units.
    const bool bare = std::all_of(expr.begin(), expr.end(), [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
    });
    std::string name(expr);
    if (name.substr(0, 6) == "this->") name = name.substr(6);
    if (!cls.empty() && (bare || name != expr)) return cls + "::" + name;
    return name;
  }

  void SplitTopLevelCommas(std::size_t open, std::size_t close,
                           std::vector<std::string>* out) const {
    std::size_t begin = open + 1;
    int depth = 0;
    for (std::size_t k = open + 1; k < close; ++k) {
      if (IsPunct(k, "(") || IsPunct(k, "<") || IsPunct(k, "[")) ++depth;
      if (IsPunct(k, ")") || IsPunct(k, ">") || IsPunct(k, "]")) --depth;
      if (depth == 0 && IsPunct(k, ",")) {
        out->push_back(JoinTokens(model, begin, k));
        begin = k + 1;
      }
    }
    if (begin < close) out->push_back(JoinTokens(model, begin, close));
  }

  void CollectFacts() {
    const std::size_t n = model.code.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (!IsIdent(k)) continue;
      const std::string& word = Tok(k).text;

      // util::MutexLock lock(expr);
      if (word == "MutexLock" && k + 2 < n && IsIdent(k + 1) &&
          IsPunct(k + 2, "(")) {
        const std::size_t close = FindClose(k + 2, n, '(', ')');
        if (close < n) {
          LockAcquire acq;
          acq.scope = model.scope_of[k];
          acq.expr = JoinTokens(model, k + 3, close);
          acq.canonical = Canonical(acq.expr, ClassAt(k));
          acq.code_index = k;
          acq.line = Tok(k).line;
          model.locks.push_back(std::move(acq));
        }
        continue;
      }

      if (word == "WEBCC_GUARDED_BY" || word == "WEBCC_PT_GUARDED_BY") {
        if (k + 1 >= n || !IsPunct(k + 1, "(") || k == 0 || !IsIdent(k - 1)) {
          continue;
        }
        const std::size_t close = FindClose(k + 1, n, '(', ')');
        if (close >= n) continue;
        GuardedField f;
        f.class_name = ClassAt(k);
        f.field = Tok(k - 1).text;
        f.guard = JoinTokens(model, k + 2, close);
        f.line = Tok(k - 1).line;
        f.pointee_only = (word == "WEBCC_PT_GUARDED_BY");
        if (!f.class_name.empty()) model.guarded_fields.push_back(std::move(f));
        continue;
      }

      if (word == "WEBCC_REQUIRES" || word == "WEBCC_REQUIRES_SHARED") {
        if (k + 1 >= n || !IsPunct(k + 1, "(") || k == 0) continue;
        // The annotation trails the parameter list, possibly with cv/ref
        // qualifiers between: `T f(args) const WEBCC_REQUIRES(mu)`.
        std::size_t pk = k - 1;
        while (pk > 0 && Tok(pk).kind == TokKind::kIdent &&
               IsSpecifier(Tok(pk).text)) {
          --pk;
        }
        if (!IsPunct(pk, ")")) continue;
        const std::size_t close = FindClose(k + 1, n, '(', ')');
        if (close >= n) continue;
        // Owner: the identifier before the parameter list this annotation
        // trails — `T C::f(args) WEBCC_REQUIRES(mu)` or an in-class decl.
        const std::size_t popen = FindOpenBack(pk, 0);
        if (popen == pk || popen == 0 || !IsIdent(popen - 1)) continue;
        std::size_t nk = popen - 1;
        std::string name = Tok(nk).text;
        while (nk >= 2 && IsPunct(nk - 1, "::") && IsIdent(nk - 2)) {
          name = Tok(nk - 2).text + "::" + name;
          nk -= 2;
        }
        if (name.find("::") == std::string::npos) {
          const std::string cls = ClassAt(k);
          if (!cls.empty()) name = cls + "::" + name;
        }
        std::vector<std::string> exprs;
        SplitTopLevelCommas(k + 1, close, &exprs);
        for (std::string& e : exprs) {
          model.requires_locks[name].insert(std::move(e));
        }
        continue;
      }

      if (word == "WEBCC_ACQUIRED_BEFORE" || word == "WEBCC_ACQUIRED_AFTER") {
        if (k + 1 >= n || !IsPunct(k + 1, "(") || k == 0 || !IsIdent(k - 1)) {
          continue;
        }
        const std::size_t close = FindClose(k + 1, n, '(', ')');
        if (close >= n) continue;
        const std::string cls = ClassAt(k);
        const std::string owner = Canonical(Tok(k - 1).text, cls);
        std::vector<std::string> exprs;
        SplitTopLevelCommas(k + 1, close, &exprs);
        for (const std::string& e : exprs) {
          const std::string other = Canonical(e, cls);
          DeclaredOrder edge;
          edge.line = Tok(k).line;
          if (word == "WEBCC_ACQUIRED_BEFORE") {
            edge.before = owner;
            edge.after = other;
          } else {
            edge.before = other;
            edge.after = owner;
          }
          model.declared_order.push_back(std::move(edge));
        }
        continue;
      }
    }
  }
};

}  // namespace

bool IsDumpFunctionName(std::string_view name) {
  for (const std::string_view piece :
       {"Dump", "Snapshot", "Serialize", "Digest", "Export", "ToJson",
        "WriteJson"}) {
    if (name.find(piece) != std::string_view::npos) return true;
  }
  return false;
}

std::string JoinTokens(const ScopeModel& model, std::size_t begin,
                       std::size_t end) {
  std::string out;
  for (std::size_t k = begin; k < end && k < model.code.size(); ++k) {
    out += model.Tok(k).text;
  }
  return out;
}

ScopeModel BuildScopeModel(std::vector<Token> tokens) {
  Builder b;
  b.model.tokens = std::move(tokens);
  b.model.code.reserve(b.model.tokens.size());
  for (std::size_t i = 0; i < b.model.tokens.size(); ++i) {
    if (b.model.tokens[i].kind != TokKind::kComment) b.model.code.push_back(i);
  }
  b.BuildScopes();
  b.CollectFacts();
  return std::move(b.model);
}

}  // namespace webcc::lint
