// Package token defines the lexical tokens of the MiniC language and the
// source positions used throughout the Mira pipeline.
//
// MiniC is the C/C++ subset Mira's front end accepts: functions, classes
// with member functions (including operator()), scalar and array types,
// for/while loops, branches, and #pragma @Annotation directives. Positions
// carry both line and column because the source-to-binary bridge
// (internal/bridge) resolves instructions to statement sub-parts — e.g. the
// init/cond/increment clauses of a for statement share a line but not a
// column.
package token

import "fmt"

// Pos is a source position. The zero Pos is invalid.
type Pos struct {
	Line int // 1-based
	Col  int // 1-based
}

// Valid reports whether the position is set.
func (p Pos) Valid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.Valid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Before reports whether p occurs before q in the source.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT     // foo
	INTLIT    // 123
	FLOATLIT  // 1.5, 1e-9
	STRINGLIT // "abc"
	CHARLIT   // 'a'

	// Operators and delimiters.
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	ASSIGN   // =
	PLUSEQ   // +=
	MINUSEQ  // -=
	STAREQ   // *=
	SLASHEQ  // /=
	INC      // ++
	DEC      // --
	EQ       // ==
	NEQ      // !=
	LT       // <
	GT       // >
	LEQ      // <=
	GEQ      // >=
	ANDAND   // &&
	OROR     // ||
	NOT      // !
	AMP      // &
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	SEMI     // ;
	DOT      // .
	ARROW    // ->
	COLON    // :
	SCOPE    // ::
	QUESTION // ?

	// Keywords.
	KWINT
	KWLONG
	KWDOUBLE
	KWFLOAT
	KWVOID
	KWBOOL
	KWCHAR
	KWIF
	KWELSE
	KWFOR
	KWWHILE
	KWDO
	KWRETURN
	KWBREAK
	KWCONTINUE
	KWCONST
	KWCLASS
	KWSTRUCT
	KWPUBLIC
	KWPRIVATE
	KWOPERATOR
	KWEXTERN
	KWTRUE
	KWFALSE
	KWUNSIGNED
	KWSTATIC

	// PRAGMA is a whole "#pragma ..." directive; the text after "#pragma"
	// is carried in the token literal.
	PRAGMA
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF",
	IDENT: "IDENT", INTLIT: "INTLIT", FLOATLIT: "FLOATLIT",
	STRINGLIT: "STRINGLIT", CHARLIT: "CHARLIT",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	ASSIGN: "=", PLUSEQ: "+=", MINUSEQ: "-=", STAREQ: "*=", SLASHEQ: "/=",
	INC: "++", DEC: "--",
	EQ: "==", NEQ: "!=", LT: "<", GT: ">", LEQ: "<=", GEQ: ">=",
	ANDAND: "&&", OROR: "||", NOT: "!", AMP: "&",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACKET: "[", RBRACKET: "]",
	COMMA: ",", SEMI: ";", DOT: ".", ARROW: "->", COLON: ":", SCOPE: "::",
	QUESTION: "?",
	KWINT:    "int", KWLONG: "long", KWDOUBLE: "double", KWFLOAT: "float",
	KWVOID: "void", KWBOOL: "bool", KWCHAR: "char",
	KWIF: "if", KWELSE: "else", KWFOR: "for", KWWHILE: "while", KWDO: "do",
	KWRETURN: "return", KWBREAK: "break", KWCONTINUE: "continue",
	KWCONST: "const", KWCLASS: "class", KWSTRUCT: "struct",
	KWPUBLIC: "public", KWPRIVATE: "private", KWOPERATOR: "operator",
	KWEXTERN: "extern", KWTRUE: "true", KWFALSE: "false",
	KWUNSIGNED: "unsigned", KWSTATIC: "static",
	PRAGMA: "#pragma",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps identifier spellings to keyword kinds.
var Keywords = map[string]Kind{
	"int": KWINT, "long": KWLONG, "double": KWDOUBLE, "float": KWFLOAT,
	"void": KWVOID, "bool": KWBOOL, "char": KWCHAR,
	"if": KWIF, "else": KWELSE, "for": KWFOR, "while": KWWHILE, "do": KWDO,
	"return": KWRETURN, "break": KWBREAK, "continue": KWCONTINUE,
	"const": KWCONST, "class": KWCLASS, "struct": KWSTRUCT,
	"public": KWPUBLIC, "private": KWPRIVATE, "operator": KWOPERATOR,
	"extern": KWEXTERN, "true": KWTRUE, "false": KWFALSE,
	"unsigned": KWUNSIGNED, "static": KWSTATIC,
}

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT, literals, and PRAGMA payloads
	Pos  Pos
	// Off and End are the byte offsets of the token's first byte and one
	// past its last in the scanned source.
	Off, End int
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT, STRINGLIT, CHARLIT, PRAGMA:
		return fmt.Sprintf("%s(%q)@%s", t.Kind, t.Lit, t.Pos)
	default:
		return fmt.Sprintf("%s@%s", t.Kind, t.Pos)
	}
}

// IsType reports whether the kind starts a type name.
func (k Kind) IsType() bool {
	switch k {
	case KWINT, KWLONG, KWDOUBLE, KWFLOAT, KWVOID, KWBOOL, KWCHAR, KWUNSIGNED:
		return true
	}
	return false
}

// IsAssignOp reports whether the kind is an assignment operator.
func (k Kind) IsAssignOp() bool {
	switch k {
	case ASSIGN, PLUSEQ, MINUSEQ, STAREQ, SLASHEQ:
		return true
	}
	return false
}

// IsCmpOp reports whether the kind is a comparison operator.
func (k Kind) IsCmpOp() bool {
	switch k {
	case EQ, NEQ, LT, GT, LEQ, GEQ:
		return true
	}
	return false
}
