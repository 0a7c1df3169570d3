"""Unit tests for the mini-C frontend: lexer, parser, sema and lowering."""

import pytest

from repro.frontend import (
    LexerError,
    LoweringError,
    ParseError,
    SemanticError,
    analyze,
    compile_source,
    parse,
    tokenize,
)
from repro.frontend.ast_nodes import (
    ArrayIndex,
    Assignment,
    BinaryOp,
    Call,
    Cast,
    ForStmt,
    IfStmt,
    Member,
    ReturnStmt,
    StringLiteral,
    UnaryOp,
    WhileStmt,
)
from repro.frontend.lexer import TokenKind
from repro.ir import INT32, PointerType, StructType, verify_module
from repro.ir.instructions import (
    AllocaInst,
    CallInst,
    FreeInst,
    ICmpInst,
    LoadInst,
    MallocInst,
    PhiInst,
    PtrAddInst,
    StoreInst,
)


class TestLexer:
    def test_identifiers_keywords_numbers(self):
        tokens = tokenize("int x = 42;")
        kinds = [token.kind for token in tokens]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT,
                         TokenKind.INT, TokenKind.PUNCT, TokenKind.EOF]
        assert tokens[3].value == 42

    def test_hex_and_suffixed_literals(self):
        tokens = tokenize("0xFF 10L 2.5f")
        assert tokens[0].value == 255
        assert tokens[1].value == 10
        assert tokens[2].value == pytest.approx(2.5)

    def test_char_and_string_literals(self):
        tokens = tokenize(r"'a' '\n' " + '"hi\\n"')
        assert tokens[0].value == ord("a")
        assert tokens[1].value == ord("\n")
        assert tokens[2].value == "hi\n"

    def test_comments_and_preprocessor_skipped(self):
        tokens = tokenize("#include <stdio.h>\n// line\n/* block */ int x;")
        assert tokens[0].is_keyword("int")

    def test_multichar_punctuators(self):
        tokens = tokenize("a += b->c;")
        texts = [token.text for token in tokens[:6]]
        assert "+=" in texts and "->" in texts

    def test_line_numbers(self):
        tokens = tokenize("int x;\nint y;")
        assert tokens[0].line == 1
        assert tokens[3].line == 2

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize('"oops')

    def test_unexpected_character_raises(self):
        with pytest.raises(LexerError):
            tokenize("int $x;")


class TestParser:
    def test_function_with_params(self):
        unit = parse("int add(int a, int b) { return a + b; }")
        assert len(unit.functions) == 1
        fn = unit.functions[0]
        assert fn.name == "add"
        assert [p.name for p in fn.params] == ["a", "b"]
        ret = fn.body.statements[0]
        assert isinstance(ret, ReturnStmt) and isinstance(ret.value, BinaryOp)

    def test_prototype_has_no_body(self):
        unit = parse("void sink(int* p);")
        assert unit.functions[0].body is None

    def test_struct_declaration(self):
        unit = parse("struct point { int x; int y; };")
        assert unit.structs[0].name == "point"
        assert [f.name for f in unit.structs[0].fields] == ["x", "y"]

    def test_global_variables(self):
        unit = parse("int table[64]; char* name;")
        assert [g.name for g in unit.globals] == ["table", "name"]

    def test_precedence(self):
        unit = parse("int f() { return 1 + 2 * 3; }")
        expr = unit.functions[0].body.statements[0].value
        assert expr.op == "+"
        assert isinstance(expr.rhs, BinaryOp) and expr.rhs.op == "*"

    def test_assignment_and_compound_assignment(self):
        unit = parse("void f(int x) { x = 1; x += 2; }")
        statements = unit.functions[0].body.statements
        assert isinstance(statements[0].expression, Assignment)
        assert statements[1].expression.op == "+"

    def test_control_flow_statements(self):
        unit = parse("""
        void f(int n) {
          int i;
          if (n) { n = 1; } else { n = 2; }
          while (n < 10) { n++; }
          for (i = 0; i < n; i++) { n--; }
          do { n = n - 1; } while (n);
        }
        """)
        body = unit.functions[0].body.statements
        assert isinstance(body[1], IfStmt) and body[1].else_branch is not None
        assert isinstance(body[2], WhileStmt)
        assert isinstance(body[3], ForStmt)

    def test_pointer_and_member_expressions(self):
        unit = parse("""
        struct s { int a; };
        int f(struct s* p, int* q, int i) { return p->a + q[i] + (*q); }
        """)
        expr = unit.functions[0].body.statements[0].value
        kinds = set()

        def walk(e):
            kinds.add(type(e).__name__)
            if isinstance(e, BinaryOp):
                walk(e.lhs)
                walk(e.rhs)
            elif isinstance(e, (Member, ArrayIndex, UnaryOp)):
                pass
        walk(expr)
        assert "BinaryOp" in kinds

    def test_cast_and_sizeof(self):
        unit = parse("void f(int n) { char* p = (char*)malloc(n * sizeof(int)); }")
        decl = unit.functions[0].body.statements[0].declarations[0]
        assert isinstance(decl.initializer, Cast)

    def test_call_with_string_argument(self):
        unit = parse('int f() { return strcmp("a", "b"); }')
        call = unit.functions[0].body.statements[0].value
        assert isinstance(call, Call) and len(call.args) == 2
        assert isinstance(call.args[0], StringLiteral)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError):
            parse("int f( { }")


class TestSema:
    def test_struct_resolution_and_layout(self):
        unit = parse("struct p { int x; char tag[3]; double w; };")
        info = analyze(unit)
        struct = info.structs["p"]
        assert isinstance(struct, StructType)
        assert struct.field_offset("w") == 7

    def test_duplicate_struct_rejected(self):
        with pytest.raises(SemanticError):
            analyze(parse("struct s { int a; }; struct s { int b; };"))

    def test_duplicate_function_rejected(self):
        with pytest.raises(SemanticError):
            analyze(parse("int f() { return 0; } int f() { return 1; }"))

    def test_conflicting_prototype_rejected(self):
        with pytest.raises(SemanticError):
            analyze(parse("int f(int a); char f(int a) { return 0; }"))

    def test_unknown_struct_rejected(self):
        with pytest.raises(SemanticError):
            analyze(parse("void f(struct missing* p) { }"))

    def test_self_referential_struct_allowed(self):
        info = analyze(parse("struct node { int v; struct node* next; };"))
        assert "node" in info.structs

    def test_known_externals_have_signatures(self):
        info = analyze(parse("int main() { return 0; }"))
        assert info.signature_for_call("malloc") is not None
        assert info.signature_for_call("strlen").return_type == INT32
        assert info.signature_for_call("no_such_function") is None


class TestLowering:
    def test_malloc_and_free_become_dedicated_instructions(self):
        module = compile_source("""
        void f(int n) { char* p = (char*)malloc(n); free(p); }
        """, prepare=False)
        fn = module.get_function("f")
        assert any(isinstance(inst, MallocInst) for inst in fn.instructions())
        assert any(isinstance(inst, FreeInst) for inst in fn.instructions())

    def test_array_indexing_scales_by_element_size(self):
        module = compile_source("void f(int* a, int i) { a[i] = 1; }", prepare=False)
        fn = module.get_function("f")
        ptradds = [inst for inst in fn.instructions() if isinstance(inst, PtrAddInst)]
        assert any(inst.scale == 4 for inst in ptradds)

    def test_struct_field_access_uses_byte_offsets(self):
        module = compile_source("""
        struct pair { int first; int second; };
        void f(struct pair* p) { p->second = 3; }
        """, prepare=False)
        fn = module.get_function("f")
        ptradds = [inst for inst in fn.instructions() if isinstance(inst, PtrAddInst)]
        assert any(inst.offset == 4 and inst.index is None for inst in ptradds)
        # The field address is typed as int*, so access sizes are 4 bytes.
        field = next(inst for inst in ptradds if inst.offset == 4)
        assert field.type == PointerType(INT32)

    def test_pointer_arithmetic_on_char_has_scale_one(self):
        module = compile_source("void f(char* p, int i) { *(p + i) = 0; }", prepare=False)
        fn = module.get_function("f")
        ptradds = [inst for inst in fn.instructions() if isinstance(inst, PtrAddInst)]
        assert any(inst.scale == 1 for inst in ptradds)

    def test_pointer_difference_divides_by_element_size(self):
        module = compile_source("int f(int* a, int* b) { return a - b; }", prepare=False)
        fn = module.get_function("f")
        opcodes = [inst.opcode for inst in fn.instructions()]
        assert "ptrtoint" in opcodes and "sub" in opcodes and "sdiv" in opcodes

    def test_string_literal_becomes_global(self):
        module = compile_source('char* f() { return "hello"; }', prepare=False)
        assert any(g.name.startswith(".str") for g in module.globals)

    def test_conditionals_produce_branches_and_phis_after_pipeline(self):
        module = compile_source("""
        int f(int n) { int x; if (n > 0) { x = 1; } else { x = 2; } return x; }
        """)
        fn = module.get_function("f")
        assert any(isinstance(inst, PhiInst) for inst in fn.instructions())
        assert any(isinstance(inst, ICmpInst) for inst in fn.instructions())

    def test_parameters_are_promoted_to_ssa(self):
        module = compile_source("int f(int n) { n = n + 1; return n; }")
        fn = module.get_function("f")
        assert not any(isinstance(inst, AllocaInst) for inst in fn.instructions())

    def test_break_and_continue(self):
        module = compile_source("""
        int f(int n) {
          int i; int total = 0;
          for (i = 0; i < n; i++) {
            if (i == 3) { continue; }
            if (i == 7) { break; }
            total += i;
          }
          return total;
        }
        """)
        verify_module(module)

    def test_global_variable_access(self):
        module = compile_source("""
        int counter;
        void bump() { counter = counter + 1; }
        """, prepare=False)
        fn = module.get_function("bump")
        loads = [inst for inst in fn.instructions() if isinstance(inst, LoadInst)]
        stores = [inst for inst in fn.instructions() if isinstance(inst, StoreInst)]
        assert loads and stores
        assert module.get_global("counter") is not None

    def test_calls_to_defined_functions_are_direct(self):
        module = compile_source("""
        int helper(int x) { return x; }
        int main() { return helper(3); }
        """, prepare=False)
        main = module.get_function("main")
        calls = [inst for inst in main.instructions() if isinstance(inst, CallInst)]
        assert calls and not calls[0].is_external()

    def test_calls_to_library_functions_are_external(self):
        module = compile_source("int main(int argc, char** argv) { return atoi(argv[1]); }",
                                prepare=False)
        main = module.get_function("main")
        calls = [inst for inst in main.instructions() if isinstance(inst, CallInst)]
        assert calls and calls[0].is_external()

    def test_undeclared_identifier_raises(self):
        with pytest.raises(LoweringError):
            compile_source("int f() { return missing; }")

    def test_break_outside_loop_raises(self):
        with pytest.raises(LoweringError):
            compile_source("void f() { break; }")

    def test_unknown_struct_field_is_a_positioned_lowering_error(self):
        source = ("struct P { int x; int y; };\n"
                  "int f(struct P* p) {\n"
                  "  return p->z;\n"
                  "}\n")
        with pytest.raises(LoweringError, match=r"no field 'z' \(at line 3\)"):
            compile_source(source)

    def test_every_compiled_module_verifies(self):
        module = compile_source("""
        struct node { int v; struct node* next; };
        int sum(int n) {
          struct node* head = NULL;
          int i; int total = 0;
          for (i = 0; i < n; i++) {
            struct node* fresh = (struct node*)malloc(sizeof(struct node));
            fresh->v = i;
            fresh->next = (struct node*)head;
            head = fresh;
          }
          while (head != NULL) {
            total += head->v;
            head = (struct node*)head->next;
          }
          return total;
        }
        """)
        assert verify_module(module) == []
