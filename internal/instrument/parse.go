package instrument

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseProgram reads the textual IR format, so the sbdc tool can
// transform programs supplied as files — the way the paper's tool
// consumes class files. The grammar:
//
//	program     := (class | method)*
//	class       := "class" Name "{" fieldList? "}"
//	fieldList   := field ("," field)*
//	field       := "final"? Name
//	method      := kind Name "(" paramList? ")" ("canSplit"|"splitRequired")* block
//	kind        := "method" | "constructor"
//	paramList   := param ("," param)*
//	param       := Name Name?          // variable, optional class
//	block       := "{" stmt* "}"
//	stmt        := "read" access | "write" access
//	             | "nosplit" block
//	             | "new" Name Name | "newarray" Name Int
//	             | "assign" Name Name
//	             | "call" Name "(" argList? ")" "allowSplit"?
//	             | "split"
//	             | "loop" Int Name? block
//	             | "if" block ("else" block)?
//	access      := Name "." Name | Name "[" Name "]"
//
// Constructors of class C are registered as "C.<name>" with "this" as
// their implicit first parameter when declared.
func ParseProgram(src string) (*Program, error) {
	p := NewProgram()
	toks := tokenize(src)
	pos := 0

	peek := func() string {
		if pos < len(toks) {
			return toks[pos]
		}
		return ""
	}
	next := func() string {
		t := peek()
		pos++
		return t
	}
	expect := func(want string) error {
		if got := next(); got != want {
			return fmt.Errorf("instrument: parse: expected %q, got %q (token %d)", want, got, pos)
		}
		return nil
	}
	// count reads the non-negative Int operand of a loop or newarray.
	count := func(what string) (int, error) {
		n, err := strconv.Atoi(next())
		if err == nil && n < 0 {
			err = fmt.Errorf("%d is negative", n)
		}
		if err != nil {
			return 0, fmt.Errorf("instrument: parse: %s: %v", what, err)
		}
		return n, nil
	}

	var parseBlock func() (*Block, error)
	parseAccess := func(write bool) (Stmt, error) {
		v := next()
		if v == "" {
			return nil, fmt.Errorf("instrument: parse: missing access target")
		}
		switch peek() {
		case ".":
			next()
			f := next()
			if f == "" {
				return nil, fmt.Errorf("instrument: parse: missing field after %s.", v)
			}
			return &Access{Var: v, Field: f, Write: write}, nil
		case "[":
			next()
			idx := next()
			if err := expect("]"); err != nil {
				return nil, err
			}
			return &Access{Var: v, IsArray: true, Index: idx, Write: write}, nil
		}
		return nil, fmt.Errorf("instrument: parse: expected '.' or '[' after %q", v)
	}

	parseStmt := func() (Stmt, error) {
		switch kw := next(); kw {
		case "read":
			return parseAccess(false)
		case "write":
			return parseAccess(true)
		case "new":
			dst, cls := next(), next()
			if dst == "" || cls == "" {
				return nil, fmt.Errorf("instrument: parse: new needs variable and class")
			}
			return &New{Dst: dst, Class: cls}, nil
		case "newarray":
			dst := next()
			n, err := count("newarray " + dst + " size")
			if err != nil {
				return nil, err
			}
			return &NewArray{Dst: dst, Size: n}, nil
		case "assign":
			dst, src := next(), next()
			return &Assign{Dst: dst, Src: src}, nil
		case "call":
			name := next()
			if peek() == "." { // qualified callee: Class.method
				next()
				name += "." + next()
			}
			if err := expect("("); err != nil {
				return nil, err
			}
			var args []string
			for peek() != ")" && peek() != "" {
				args = append(args, next())
				if peek() == "," {
					next()
				}
			}
			if err := expect(")"); err != nil {
				return nil, err
			}
			c := &Call{Method: name, Args: args}
			if peek() == "allowSplit" {
				next()
				c.AllowSplit = true
			}
			return c, nil
		case "split":
			return &Split{}, nil
		case "nosplit":
			body, err := parseBlock()
			if err != nil {
				return nil, err
			}
			return &NoSplit{Body: body}, nil
		case "loop":
			n, err := count("loop count")
			if err != nil {
				return nil, err
			}
			idx := ""
			if peek() != "{" {
				idx = next()
			}
			body, err := parseBlock()
			if err != nil {
				return nil, err
			}
			return &Loop{Count: n, IdxVar: idx, Body: body}, nil
		case "if":
			thenB, err := parseBlock()
			if err != nil {
				return nil, err
			}
			st := &If{Then: thenB}
			if peek() == "else" {
				next()
				if st.Else, err = parseBlock(); err != nil {
					return nil, err
				}
			}
			return st, nil
		default:
			return nil, fmt.Errorf("instrument: parse: unknown statement %q", kw)
		}
	}

	parseBlock = func() (*Block, error) {
		if err := expect("{"); err != nil {
			return nil, err
		}
		b := &Block{}
		for peek() != "}" {
			if peek() == "" {
				return nil, fmt.Errorf("instrument: parse: unterminated block")
			}
			s, err := parseStmt()
			if err != nil {
				return nil, err
			}
			b.Stmts = append(b.Stmts, s)
		}
		next() // consume "}"
		return b, nil
	}

	for pos < len(toks) {
		switch kw := next(); kw {
		case "class":
			name := next()
			if err := expect("{"); err != nil {
				return nil, err
			}
			c := p.AddClass(name)
			for peek() != "}" {
				if peek() == "" {
					return nil, fmt.Errorf("instrument: parse: unterminated class %s", name)
				}
				final := false
				if peek() == "final" {
					next()
					final = true
				}
				f := next()
				c.Fields = append(c.Fields, &FieldDef{Name: f, Final: final})
				if peek() == "," {
					next()
				}
			}
			next() // "}"
		case "method", "constructor":
			name := next()
			if peek() == "." { // qualified name: Class.method
				next()
				name += "." + next()
			}
			m := &Method{Name: name, Constructor: kw == "constructor"}
			if m.Constructor {
				cls, _, found := strings.Cut(name, ".")
				if !found {
					return nil, fmt.Errorf("instrument: parse: constructor %s needs Class.name form", name)
				}
				m.Class = cls
			}
			if err := expect("("); err != nil {
				return nil, err
			}
			for peek() != ")" && peek() != "" {
				v := next()
				m.Params = append(m.Params, v)
				if peek() != "," && peek() != ")" {
					m.ParamClasses = append(m.ParamClasses, next())
				} else {
					m.ParamClasses = append(m.ParamClasses, "")
				}
				if peek() == "," {
					next()
				}
			}
			if err := expect(")"); err != nil {
				return nil, err
			}
			for peek() == "canSplit" || peek() == "splitRequired" {
				if next() == "canSplit" {
					m.CanSplit = true
				} else {
					m.SplitRequired = true
				}
			}
			body, err := parseBlock()
			if err != nil {
				return nil, fmt.Errorf("instrument: parse: method %s: %w", name, err)
			}
			m.Body = body
			if m.Constructor && m.CanSplit {
				return nil, fmt.Errorf("instrument: parse: constructor %s cannot be canSplit", name)
			}
			p.AddMethod(m)
		default:
			return nil, fmt.Errorf("instrument: parse: expected class/method/constructor, got %q", kw)
		}
	}
	return p, nil
}

// tokenize splits the IR source into tokens; punctuation characters are
// their own tokens, '#' starts a line comment.
func tokenize(src string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	inComment := false
	for _, r := range src {
		if inComment {
			if r == '\n' {
				inComment = false
			}
			continue
		}
		switch r {
		case '#':
			flush()
			inComment = true
		case ' ', '\t', '\n', '\r':
			flush()
		case '{', '}', '(', ')', '[', ']', ',', '.':
			flush()
			toks = append(toks, string(r))
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}
