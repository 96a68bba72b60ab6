#include "frontend/parser.hh"

#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "support/logging.hh"

namespace cams
{

namespace
{

// ---------------------------------------------------------------- lexer

enum class Tok
{
    Ident,
    Number,
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Plus,
    Minus,
    Star,
    Slash,
    Shl,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    End,
};

struct Token
{
    Tok kind = Tok::End;
    std::string text;
    int line = 1;
};

struct ParseError
{
    int line;
    std::string message;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &source) : source_(source)
    {
        advance();
    }

    const Token &peek() const { return current_; }

    Token
    take()
    {
        Token token = current_;
        advance();
        return token;
    }

  private:
    void
    advance()
    {
        skipSpace();
        current_ = Token{};
        current_.line = line_;
        if (at_ >= source_.size()) {
            current_.kind = Tok::End;
            return;
        }
        const char c = source_[at_];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t begin = at_;
            while (at_ < source_.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(source_[at_])) ||
                    source_[at_] == '_')) {
                ++at_;
            }
            current_.kind = Tok::Ident;
            current_.text = source_.substr(begin, at_ - begin);
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t begin = at_;
            while (at_ < source_.size() &&
                   (std::isdigit(
                        static_cast<unsigned char>(source_[at_])) ||
                    source_[at_] == '.')) {
                ++at_;
            }
            current_.kind = Tok::Number;
            current_.text = source_.substr(begin, at_ - begin);
            return;
        }
        ++at_;
        switch (c) {
          case '{':
            current_.kind = Tok::LBrace;
            return;
          case '}':
            current_.kind = Tok::RBrace;
            return;
          case '(':
            current_.kind = Tok::LParen;
            return;
          case ')':
            current_.kind = Tok::RParen;
            return;
          case '[':
            current_.kind = Tok::LBracket;
            return;
          case ']':
            current_.kind = Tok::RBracket;
            return;
          case ';':
            current_.kind = Tok::Semi;
            return;
          case '+':
            if (eat('='))
                current_.kind = Tok::PlusAssign;
            else
                current_.kind = Tok::Plus;
            return;
          case '-':
            if (eat('='))
                current_.kind = Tok::MinusAssign;
            else
                current_.kind = Tok::Minus;
            return;
          case '*':
            if (eat('='))
                current_.kind = Tok::StarAssign;
            else
                current_.kind = Tok::Star;
            return;
          case '/':
            current_.kind = Tok::Slash;
            return;
          case '<':
            if (eat('<'))
                current_.kind = Tok::Shl;
            else if (eat('='))
                current_.kind = Tok::Le;
            else
                current_.kind = Tok::Lt;
            return;
          case '>':
            current_.kind = eat('=') ? Tok::Ge : Tok::Gt;
            return;
          case '!':
            if (eat('=')) {
                current_.kind = Tok::Ne;
                return;
            }
            throw ParseError{line_, "stray '!'"};
          case '=':
            current_.kind = eat('=') ? Tok::EqEq : Tok::Assign;
            return;
          default:
            throw ParseError{line_, std::string("unexpected '") + c +
                                         "'"};
        }
    }

    bool
    eat(char expected)
    {
        if (at_ < source_.size() && source_[at_] == expected) {
            ++at_;
            return true;
        }
        return false;
    }

    void
    skipSpace()
    {
        while (at_ < source_.size()) {
            const char c = source_[at_];
            if (c == '\n') {
                ++line_;
                ++at_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++at_;
            } else if (c == '#') {
                while (at_ < source_.size() && source_[at_] != '\n')
                    ++at_;
            } else if (c == '/' && at_ + 1 < source_.size() &&
                       source_[at_ + 1] == '/') {
                while (at_ < source_.size() && source_[at_] != '\n')
                    ++at_;
            } else {
                break;
            }
        }
    }

    const std::string &source_;
    size_t at_ = 0;
    int line_ = 1;
    Token current_;
};

// ------------------------------------------------------------------ AST

struct Expr
{
    enum class Kind
    {
        Number,
        Scalar,
        ArrayRef,
        Unary,   // negation
        Binary,  // op in {'+','-','*','/','<'} ('<' = shift)
        Compare, // op in {'<','>','l','g','e','n'} (le/ge/eq/ne)
        Sqrt,
    };
    Kind kind;
    int line = 1;
    std::string name; // scalar/array name
    int offset = 0;   // array subscript offset
    bool intLiteral = false;
    char op = 0;
    std::unique_ptr<Expr> lhs;
    std::unique_ptr<Expr> rhs;
};

struct Stmt
{
    int line = 1;
    std::unique_ptr<Expr> guard; // if-conversion predicate, may be null
    bool toArray = false;
    std::string name;
    int offset = 0;
    char compound = 0; // 0 for '=', else '+', '-', '*'
    std::unique_ptr<Expr> value;
};

class Parser
{
  public:
    explicit Parser(const std::string &source) : lexer_(source) {}

    std::string loopName;
    std::vector<Stmt> statements;

    void
    parse()
    {
        expectIdent("loop");
        const Token name = expect(Tok::Ident, "loop name");
        loopName = name.text;
        expect(Tok::LBrace, "'{'");
        while (lexer_.peek().kind != Tok::RBrace)
            statements.push_back(parseStatement());
        expect(Tok::RBrace, "'}'");
        if (lexer_.peek().kind != Tok::End)
            throw ParseError{lexer_.peek().line, "trailing input"};
        if (statements.empty())
            throw ParseError{name.line, "empty loop body"};
    }

  private:
    Stmt
    parseStatement()
    {
        if (lexer_.peek().kind == Tok::Ident &&
            lexer_.peek().text == "if") {
            lexer_.take();
            expect(Tok::LParen, "'('");
            auto guard = parseCondition();
            expect(Tok::RParen, "')'");
            Stmt stmt = parseStatement();
            if (stmt.guard) {
                throw ParseError{stmt.line,
                                 "nested guards are not supported"};
            }
            stmt.guard = std::move(guard);
            return stmt;
        }
        Stmt stmt;
        const Token target = expect(Tok::Ident, "assignment target");
        stmt.line = target.line;
        stmt.name = target.text;
        if (lexer_.peek().kind == Tok::LBracket) {
            stmt.toArray = true;
            stmt.offset = parseSubscript();
        }
        switch (lexer_.take().kind) {
          case Tok::Assign:
            stmt.compound = 0;
            break;
          case Tok::PlusAssign:
            stmt.compound = '+';
            break;
          case Tok::MinusAssign:
            stmt.compound = '-';
            break;
          case Tok::StarAssign:
            stmt.compound = '*';
            break;
          default:
            throw ParseError{stmt.line, "expected an assignment"};
        }
        stmt.value = parseExpr();
        expect(Tok::Semi, "';'");
        return stmt;
    }

    std::unique_ptr<Expr>
    parseCondition()
    {
        auto lhs = parseExpr();
        char relop;
        switch (lexer_.peek().kind) {
          case Tok::Lt:
            relop = '<';
            break;
          case Tok::Gt:
            relop = '>';
            break;
          case Tok::Le:
            relop = 'l';
            break;
          case Tok::Ge:
            relop = 'g';
            break;
          case Tok::EqEq:
            relop = 'e';
            break;
          case Tok::Ne:
            relop = 'n';
            break;
          default:
            throw ParseError{lexer_.peek().line,
                             "expected a comparison"};
        }
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::Compare;
        node->line = lexer_.take().line;
        node->op = relop;
        node->lhs = std::move(lhs);
        node->rhs = parseExpr();
        return node;
    }

    int
    parseSubscript()
    {
        expect(Tok::LBracket, "'['");
        expect(Tok::Ident, "induction variable");
        int offset = 0;
        if (lexer_.peek().kind == Tok::Plus ||
            lexer_.peek().kind == Tok::Minus) {
            const bool negative = lexer_.take().kind == Tok::Minus;
            const Token amount = expect(Tok::Number, "offset");
            offset = std::atoi(amount.text.c_str());
            if (negative)
                offset = -offset;
        }
        expect(Tok::RBracket, "']'");
        return offset;
    }

    std::unique_ptr<Expr>
    parseExpr()
    {
        auto lhs = parseTerm();
        while (lexer_.peek().kind == Tok::Plus ||
               lexer_.peek().kind == Tok::Minus) {
            const Token op = lexer_.take();
            auto node = std::make_unique<Expr>();
            node->kind = Expr::Kind::Binary;
            node->line = op.line;
            node->op = op.kind == Tok::Plus ? '+' : '-';
            node->lhs = std::move(lhs);
            node->rhs = parseTerm();
            lhs = std::move(node);
        }
        return lhs;
    }

    std::unique_ptr<Expr>
    parseTerm()
    {
        auto lhs = parseShift();
        while (lexer_.peek().kind == Tok::Star ||
               lexer_.peek().kind == Tok::Slash) {
            const Token op = lexer_.take();
            auto node = std::make_unique<Expr>();
            node->kind = Expr::Kind::Binary;
            node->line = op.line;
            node->op = op.kind == Tok::Star ? '*' : '/';
            node->lhs = std::move(lhs);
            node->rhs = parseShift();
            lhs = std::move(node);
        }
        return lhs;
    }

    std::unique_ptr<Expr>
    parseShift()
    {
        auto lhs = parseFactor();
        while (lexer_.peek().kind == Tok::Shl) {
            const Token op = lexer_.take();
            auto node = std::make_unique<Expr>();
            node->kind = Expr::Kind::Binary;
            node->line = op.line;
            node->op = '<';
            node->lhs = std::move(lhs);
            node->rhs = parseFactor();
            lhs = std::move(node);
        }
        return lhs;
    }

    std::unique_ptr<Expr>
    parseFactor()
    {
        if (lexer_.peek().kind == Tok::Minus) {
            const Token op = lexer_.take();
            auto node = std::make_unique<Expr>();
            node->kind = Expr::Kind::Unary;
            node->line = op.line;
            node->lhs = parsePrimary();
            return node;
        }
        return parsePrimary();
    }

    std::unique_ptr<Expr>
    parsePrimary()
    {
        const Token token = lexer_.take();
        auto node = std::make_unique<Expr>();
        node->line = token.line;
        switch (token.kind) {
          case Tok::Number:
            node->kind = Expr::Kind::Number;
            node->intLiteral =
                token.text.find('.') == std::string::npos;
            return node;
          case Tok::LParen: {
            auto inner = parseExpr();
            expect(Tok::RParen, "')'");
            return inner;
          }
          case Tok::Ident:
            if (token.text == "sqrt") {
                expect(Tok::LParen, "'('");
                node->kind = Expr::Kind::Sqrt;
                node->lhs = parseExpr();
                expect(Tok::RParen, "')'");
                return node;
            }
            node->name = token.text;
            if (lexer_.peek().kind == Tok::LBracket) {
                node->kind = Expr::Kind::ArrayRef;
                node->offset = parseSubscript();
            } else {
                node->kind = Expr::Kind::Scalar;
            }
            return node;
          default:
            throw ParseError{token.line, "expected an expression"};
        }
    }

    Token
    expect(Tok kind, const std::string &what)
    {
        if (lexer_.peek().kind != kind) {
            throw ParseError{lexer_.peek().line,
                             "expected " + what};
        }
        return lexer_.take();
    }

    void
    expectIdent(const std::string &word)
    {
        const Token token = expect(Tok::Ident, "'" + word + "'");
        if (token.text != word)
            throw ParseError{token.line, "expected '" + word + "'"};
    }

    Lexer lexer_;
};

// ------------------------------------------------------------ generator

/** Fortran implicit typing: i..n are integers. */
bool
isIntName(const std::string &name)
{
    const char c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(name[0])));
    return c >= 'i' && c <= 'n';
}

class Generator
{
  public:
    Generator(const Parser &parsed) : parsed_(parsed)
    {
        graph_.setName(parsed.loopName);
    }

    Dfg
    run()
    {
        // Pre-scan: which scalars and arrays does the loop define?
        for (const Stmt &stmt : parsed_.statements) {
            if (stmt.toArray) {
                if (stmt.offset != 0) {
                    throw ParseError{stmt.line,
                                     "stores must target [i]"};
                }
                if (!storedArrays_.insert(stmt.name).second) {
                    throw ParseError{stmt.line, "array '" + stmt.name +
                                                    "' stored twice"};
                }
            } else {
                assignedScalars_.insert(stmt.name);
            }
        }

        for (const Stmt &stmt : parsed_.statements)
            genStatement(stmt);

        // Loop-carried reads resolve against the final definitions.
        for (const auto &pending : pendingScalar_) {
            auto def = scalarDef_.find(pending.name);
            cams_assert(def != scalarDef_.end(), "lost definition");
            if (def->second.node != invalidNode) {
                graph_.addEdge(def->second.node, pending.consumer, -1,
                               1);
            }
        }
        for (const auto &pending : pendingArray_) {
            auto def = arrayDef_.find(pending.name);
            if (def == arrayDef_.end()) {
                throw ParseError{pending.line,
                                 "array '" + pending.name +
                                     "' is never stored"};
            }
            if (def->second != invalidNode) {
                graph_.addEdge(def->second, pending.consumer, -1,
                               pending.distance);
            }
        }

        // The synthesized loop control: counter + back branch.
        const NodeId counter =
            graph_.addNode(Opcode::IntAlu, -1, "cnt");
        const NodeId branch = graph_.addNode(Opcode::Branch, -1, "br");
        graph_.addEdge(counter, branch, -1, 0);

        std::string why;
        cams_assert(graph_.wellFormed(&why), "frontend built a bad "
                    "graph: ", why);
        graph_.seal();
        return std::move(graph_);
    }

  private:
    /** An evaluated operand. */
    struct Value
    {
        NodeId node = invalidNode; // invalid = loop invariant
        bool isInt = false;
        /** Set for reads the definition of which comes later. */
        std::string pendingName;
        bool pendingIsArray = false;
        int pendingDistance = 0;
    };

    void
    genStatement(const Stmt &stmt)
    {
        Value guard;
        if (stmt.guard)
            guard = genExpr(*stmt.guard);

        if (stmt.toArray) {
            const Value value = genExpr(*stmt.value);
            const NodeId store =
                graph_.addNode(Opcode::Store, -1, "st_" + stmt.name);
            attachInput(store, value, stmt.line);
            if (stmt.guard)
                attachInput(store, guard, stmt.line);
            arrayDef_[stmt.name] =
                value.node; // forwarded value (invalid = invariant)
            return;
        }

        Value result;
        if (stmt.compound == 0) {
            result = genExpr(*stmt.value);
        } else {
            Value previous = readScalar(stmt.name, stmt.line);
            Value operand = genExpr(*stmt.value);
            result = makeBinary(stmt.compound, previous, operand,
                                stmt.line, stmt.name);
        }
        if (stmt.guard) {
            // If-converted scalar update: a select between the new
            // value and the scalar's previous value, predicated on
            // the guard.
            Value previous = readScalar(stmt.name, stmt.line);
            Value select;
            select.isInt = result.isInt;
            const NodeId node = graph_.addNode(
                select.isInt ? Opcode::IntAlu : Opcode::FpAdd, -1,
                "sel_" + stmt.name);
            attachInput(node, guard, stmt.line);
            attachInput(node, result, stmt.line);
            attachInput(node, previous, stmt.line);
            select.node = node;
            result = select;
        }
        scalarDef_[stmt.name] = result;
    }

    Value
    genExpr(const Expr &expr)
    {
        switch (expr.kind) {
          case Expr::Kind::Number: {
            Value value;
            value.isInt = expr.intLiteral;
            return value;
          }
          case Expr::Kind::Scalar:
            return readScalar(expr.name, expr.line);
          case Expr::Kind::ArrayRef:
            return readArray(expr.name, expr.offset, expr.line);
          case Expr::Kind::Unary: {
            const Value inner = genExpr(*expr.lhs);
            if (inner.node == invalidNode &&
                inner.pendingName.empty()) {
                return inner; // negated invariant stays invariant
            }
            Value value;
            value.isInt = inner.isInt;
            const NodeId node = graph_.addNode(
                inner.isInt ? Opcode::IntAlu : Opcode::FpAdd, -1,
                "neg" + std::to_string(graph_.numNodes()));
            attachInput(node, inner, expr.line);
            value.node = node;
            return value;
          }
          case Expr::Kind::Sqrt: {
            const Value inner = genExpr(*expr.lhs);
            if (inner.node == invalidNode &&
                inner.pendingName.empty()) {
                Value value;
                value.isInt = false;
                return value;
            }
            Value value;
            const NodeId node = graph_.addNode(
                Opcode::FpSqrt, -1,
                "sqrt" + std::to_string(graph_.numNodes()));
            attachInput(node, inner, expr.line);
            value.node = node;
            return value;
          }
          case Expr::Kind::Binary: {
            const Value lhs = genExpr(*expr.lhs);
            const Value rhs = genExpr(*expr.rhs);
            return makeBinary(expr.op, lhs, rhs, expr.line, "");
          }
          case Expr::Kind::Compare: {
            const Value lhs = genExpr(*expr.lhs);
            const Value rhs = genExpr(*expr.rhs);
            const bool lhs_real =
                lhs.node != invalidNode || !lhs.pendingName.empty();
            const bool rhs_real =
                rhs.node != invalidNode || !rhs.pendingName.empty();
            if (!lhs_real && !rhs_real) {
                throw ParseError{expr.line,
                                 "loop-invariant condition"};
            }
            Value value;
            value.isInt = true; // predicates are integer-class
            const NodeId node = graph_.addNode(
                lhs.isInt && rhs.isInt ? Opcode::IntAlu : Opcode::FpAdd,
                -1, "cmp" + std::to_string(graph_.numNodes()));
            attachInput(node, lhs, expr.line);
            attachInput(node, rhs, expr.line);
            value.node = node;
            return value;
          }
        }
        cams_panic("unreachable expression kind");
    }

    Value
    makeBinary(char op, const Value &lhs, const Value &rhs, int line,
               const std::string &hint)
    {
        const bool lhs_real =
            lhs.node != invalidNode || !lhs.pendingName.empty();
        const bool rhs_real =
            rhs.node != invalidNode || !rhs.pendingName.empty();
        Value value;
        value.isInt = lhs.isInt && rhs.isInt;
        if (!lhs_real && !rhs_real)
            return value; // invariant op invariant

        Opcode opcode;
        if (op == '<') {
            opcode = Opcode::IntShift;
        } else if (value.isInt) {
            opcode = Opcode::IntAlu;
        } else if (op == '*') {
            opcode = Opcode::FpMult;
        } else if (op == '/') {
            opcode = Opcode::FpDiv;
        } else {
            opcode = Opcode::FpAdd;
        }
        std::string name = hint;
        if (name.empty()) {
            name = opcodeName(opcode) +
                   std::to_string(graph_.numNodes());
        }
        const NodeId node = graph_.addNode(opcode, -1, name);
        attachInput(node, lhs, line);
        attachInput(node, rhs, line);
        value.node = node;
        return value;
    }

    /** Adds the edge (or defers it) feeding @p consumer. */
    void
    attachInput(NodeId consumer, const Value &input, int line)
    {
        if (!input.pendingName.empty()) {
            if (input.pendingIsArray) {
                pendingArray_.push_back({input.pendingName, consumer,
                                         input.pendingDistance, line});
            } else {
                pendingScalar_.push_back({input.pendingName, consumer});
            }
            return;
        }
        if (input.node != invalidNode)
            graph_.addEdge(input.node, consumer, -1, 0);
    }

    Value
    readScalar(const std::string &name, int line)
    {
        (void)line;
        auto defined = scalarDef_.find(name);
        if (defined != scalarDef_.end())
            return defined->second;
        Value value;
        value.isInt = isIntName(name);
        if (assignedScalars_.count(name)) {
            // Assigned later in the body: this read sees the previous
            // iteration's value.
            value.pendingName = name;
            value.pendingIsArray = false;
            value.pendingDistance = 1;
        }
        return value; // otherwise: loop invariant
    }

    Value
    readArray(const std::string &name, int offset, int line)
    {
        Value value;
        value.isInt = isIntName(name);
        if (storedArrays_.count(name)) {
            // Store-to-load forwarding against the loop's own store.
            if (offset > 0) {
                throw ParseError{line,
                                 "reading a future element of stored "
                                 "array '" +
                                     name + "'"};
            }
            auto defined = arrayDef_.find(name);
            if (defined != arrayDef_.end() && offset == 0) {
                Value forwarded;
                forwarded.isInt = value.isInt;
                forwarded.node = defined->second;
                return forwarded;
            }
            if (offset == 0) {
                throw ParseError{line, "reading '" + name +
                                           "[i]' before storing it"};
            }
            value.pendingName = name;
            value.pendingIsArray = true;
            value.pendingDistance = -offset;
            return value;
        }

        auto cached = loads_.find({name, offset});
        if (cached != loads_.end()) {
            value.node = cached->second;
            return value;
        }
        std::string label = "ld_" + name;
        if (offset > 0)
            label += "_p" + std::to_string(offset);
        else if (offset < 0)
            label += "_m" + std::to_string(-offset);
        const NodeId node = graph_.addNode(Opcode::Load, -1, label);
        loads_[{name, offset}] = node;
        value.node = node;
        return value;
    }

    const Parser &parsed_;
    Dfg graph_;
    std::set<std::string> assignedScalars_;
    std::set<std::string> storedArrays_;
    std::map<std::string, Value> scalarDef_;
    std::map<std::string, NodeId> arrayDef_;
    std::map<std::pair<std::string, int>, NodeId> loads_;
    struct PendingScalar
    {
        std::string name;
        NodeId consumer;
    };
    struct PendingArray
    {
        std::string name;
        NodeId consumer;
        int distance;
        int line;
    };
    std::vector<PendingScalar> pendingScalar_;
    std::vector<PendingArray> pendingArray_;
};

} // namespace

bool
parseLoopSource(const std::string &source, Dfg &out, std::string &error)
{
    try {
        Parser parser(source);
        parser.parse();
        Generator generator(parser);
        out = generator.run();
        error.clear();
        return true;
    } catch (const ParseError &failure) {
        error = "line " + std::to_string(failure.line) + ": " +
                failure.message;
        return false;
    }
}

} // namespace cams
