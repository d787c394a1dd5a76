// Package lexer implements the MiniC scanner.
//
// The scanner is the first half of Mira's Input Processor (paper Sec. III-A):
// it turns source text into a token stream with precise line/column
// positions, and it recognizes "#pragma" directives so that user annotations
// (paper Sec. III-C4) survive into the AST.
package lexer

import (
	"fmt"
	"strings"

	"mira/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniC source text. Positions are 1-based byte columns: a
// token's column is its offset past the start of its line, so only the
// paths that can cross a newline keep the line count up to date.
type Lexer struct {
	src       string
	off       int // byte offset of next rune
	line      int
	lineStart int // offset of the first byte of the current line
	errors    []*Error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errors }

// Offset returns the byte offset up to which the source has been scanned.
func (l *Lexer) Offset() int { return l.off }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

// advance consumes one byte of any kind, newlines included.
func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.lineStart = l.off
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.off - l.lineStart + 1} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipDigits consumes a run of decimal digits.
func (l *Lexer) skipDigits() {
	for l.off < len(l.src) && isDigit(l.src[l.off]) {
		l.off++
	}
}

// skipSpace consumes whitespace and comments, recording an unterminated
// block comment as an error.
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; {
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
		case c == '\n':
			l.off++
			l.line++
			l.lineStart = l.off
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.src[l.off] != '\n' && l.src[l.off] != 0 {
				l.off++
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.off += 2
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.off += 2
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		case c == '\\' && (l.peek2() == '\n' || l.peek2() == '\r'):
			// Line continuation (used inside multi-line pragmas outside
			// directive context too).
			l.off++
			l.advance()
		default:
			return
		}
	}
}

// Scan overwrites *t with the next token, stamped with its byte offsets.
// The caller owns the token's storage, so a token is never copied on its
// way from the lexer to the parser.
func (l *Lexer) Scan(t *token.Token) {
	l.skipSpace()
	off := l.off
	t.Pos, t.Lit = l.pos(), ""
	c := l.peek()
	switch {
	case c == 0:
		t.Kind = token.EOF
	case c == '#':
		l.scanPragma(t)
	case isIdentStart(c):
		start := l.off
		for l.off++; l.off < len(l.src) && isIdentCont(l.src[l.off]); l.off++ {
		}
		t.Lit, t.Kind = l.src[start:l.off], token.IDENT
		if kw, ok := token.Keywords[t.Lit]; ok {
			t.Kind = kw
		}
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		l.scanNumber(t)
	case c == '"':
		l.scanString(t)
	case c == '\'':
		l.scanChar(t)
	default:
		l.scanOperator(t)
	}
	t.Off, t.End = off, l.off
}

// All scans the remaining input and returns every token including the
// trailing EOF token.
func (l *Lexer) All() []token.Token {
	// MiniC averages about three source bytes per token (bundled programs
	// and Table I rows), so one allocation usually holds every token.
	toks := make([]token.Token, 0, (len(l.src)-l.off)/3+1)
	for {
		toks = append(toks, token.Token{})
		l.Scan(&toks[len(toks)-1])
		if toks[len(toks)-1].Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) scanNumber(t *token.Token) {
	start := l.off
	t.Kind = token.INTLIT
	l.skipDigits()
	if l.peek() == '.' {
		t.Kind = token.FLOATLIT
		l.off++
		l.skipDigits()
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		next := l.peek2()
		hasExp := isDigit(next)
		if (next == '+' || next == '-') && l.off+2 < len(l.src) && isDigit(l.src[l.off+2]) {
			hasExp = true
		}
		if hasExp {
			t.Kind = token.FLOATLIT
			l.off++ // e
			if l.peek() == '+' || l.peek() == '-' {
				l.off++
			}
			l.skipDigits()
		}
	}
	// Accept and drop C suffixes (f, L, u, ll).
	t.Lit = l.src[start:l.off]
	for {
		c := l.peek()
		if c == 'f' || c == 'F' {
			t.Kind = token.FLOATLIT
			l.off++
			continue
		}
		if c == 'l' || c == 'L' || c == 'u' || c == 'U' {
			l.off++
			continue
		}
		break
	}
}

func (l *Lexer) scanString(t *token.Token) {
	pos := t.Pos
	l.off++ // opening quote
	var sb strings.Builder
	for {
		c := l.peek()
		if c == 0 || c == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		l.off++
		if c == '"' {
			break
		}
		if c == '\\' {
			esc := l.advance()
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"', '\'':
				sb.WriteByte(esc)
			case '0':
				sb.WriteByte(0)
			default:
				l.errorf(pos, "unknown escape \\%c", esc)
			}
			continue
		}
		sb.WriteByte(c)
	}
	t.Kind, t.Lit = token.STRINGLIT, sb.String()
}

func (l *Lexer) scanChar(t *token.Token) {
	l.off++ // opening quote
	var lit string
	c := l.advance()
	if c == '\\' {
		esc := l.advance()
		switch esc {
		case 'n':
			lit = "\n"
		case 't':
			lit = "\t"
		case '0':
			lit = string(byte(0))
		default:
			lit = string(esc)
		}
	} else {
		lit = string(c)
	}
	if l.peek() != '\'' {
		l.errorf(t.Pos, "unterminated character literal")
	} else {
		l.off++
	}
	t.Kind, t.Lit = token.CHARLIT, lit
}

// scanPragma consumes a "#pragma ..." (or any "#...") directive up to the
// end of the logical line, honoring backslash line continuations. The token
// literal is the directive body after "#".
func (l *Lexer) scanPragma(t *token.Token) {
	l.off++ // '#'
	var sb strings.Builder
	for {
		c := l.peek()
		if c == 0 {
			break
		}
		if c == '\\' && (l.peek2() == '\n' || l.peek2() == '\r') {
			l.off++ // backslash
			for l.peek() == '\r' {
				l.off++
			}
			if l.peek() == '\n' {
				l.advance()
			}
			sb.WriteByte(' ')
			continue
		}
		if c == '\n' {
			break
		}
		sb.WriteByte(c)
		l.off++
	}
	body := strings.TrimSpace(sb.String())
	if !strings.HasPrefix(body, "pragma") {
		l.errorf(t.Pos, "unsupported preprocessor directive %q", "#"+body)
		t.Kind, t.Lit = token.ILLEGAL, body
		return
	}
	t.Kind, t.Lit = token.PRAGMA, strings.TrimSpace(strings.TrimPrefix(body, "pragma"))
}

// scanOperator scans punctuation. The byte under the cursor is never a
// newline (skipSpace consumed those), so it moves the offset directly.
func (l *Lexer) scanOperator(t *token.Token) {
	c := l.src[l.off]
	l.off++
	// two picks k2 when the next byte is next (consuming it), else k1.
	two := func(next byte, k2, k1 token.Kind) token.Kind {
		if l.peek() == next {
			l.off++
			return k2
		}
		return k1
	}
	var k token.Kind
	switch c {
	case '+':
		if l.peek() == '+' {
			l.off++
			k = token.INC
		} else {
			k = two('=', token.PLUSEQ, token.PLUS)
		}
	case '-':
		switch l.peek() {
		case '-':
			l.off++
			k = token.DEC
		case '>':
			l.off++
			k = token.ARROW
		default:
			k = two('=', token.MINUSEQ, token.MINUS)
		}
	case '*':
		k = two('=', token.STAREQ, token.STAR)
	case '/':
		k = two('=', token.SLASHEQ, token.SLASH)
	case '%':
		k = token.PERCENT
	case '=':
		k = two('=', token.EQ, token.ASSIGN)
	case '!':
		k = two('=', token.NEQ, token.NOT)
	case '<':
		k = two('=', token.LEQ, token.LT)
	case '>':
		k = two('=', token.GEQ, token.GT)
	case '&':
		k = two('&', token.ANDAND, token.AMP)
	case '|':
		if l.peek() != '|' {
			l.errorf(t.Pos, "unsupported operator '|'")
			t.Kind, t.Lit = token.ILLEGAL, "|"
			return
		}
		l.off++
		k = token.OROR
	case '(':
		k = token.LPAREN
	case ')':
		k = token.RPAREN
	case '{':
		k = token.LBRACE
	case '}':
		k = token.RBRACE
	case '[':
		k = token.LBRACKET
	case ']':
		k = token.RBRACKET
	case ',':
		k = token.COMMA
	case ';':
		k = token.SEMI
	case '.':
		k = token.DOT
	case '?':
		k = token.QUESTION
	case ':':
		k = two(':', token.SCOPE, token.COLON)
	default:
		l.errorf(t.Pos, "unexpected character %q", string(c))
		t.Kind, t.Lit = token.ILLEGAL, string(c)
		return
	}
	t.Kind = k
}
