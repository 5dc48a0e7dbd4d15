// Package query implements the statistical-check SQL fragment of the
// paper's Definition 3:
//
//	SELECT f(a.A1, b.A2, ...)
//	FROM T1 a, T2 b, ...
//	WHERE a.key = 'v1' AND (b.key = 'v2' OR b.key = 'v3') AND ...
//
// A Query couples an expression over binding aliases (package expr) with a
// FROM/WHERE skeleton that binds each alias to a relation and a key value.
// Because every alias is constrained to exactly one key value per execution
// (disjunctions are expanded before execution by the query generator), the
// fragment executes by direct cell look-ups — no general join machinery is
// required, matching how the system uses the database.
//
// The round trip is Parse ⇄ Query.SQL: queries written by fact checkers on
// the final screen are parsed back into executable form, and generated
// queries are rendered for display.
//
// # Execution
//
// There is one executor, the compiled one, reached two ways:
//
//   - Query.Execute runs a single query. It validates the query, lowers
//     the SELECT expression to a flat expr.Program on its first call
//     (cached on the Query), resolves names through the corpus's interned
//     table.Index, and evaluates on pooled scratch: allocation-free once
//     the program is cached. Errors are built on the failure path only:
//     lookup faults wrap table.ErrNotFound, division by zero wraps
//     expr.ErrDivisionByZero, and every execution error starts with
//     "query: executing <SQL>: ".
//
//   - Plan is the bulk path for one expression executed under many
//     variable assignments — tentative execution in the query generator.
//     The caller compiles once and resolves each assignment to integer
//     cell coordinates; ExecCoords evaluates them directly, which is what
//     lets Algorithm 2 enumerate candidate assignments as integer slot
//     tuples with zero string handling per candidate.
//
// The package's tests pin Execute against a reference that resolves every
// cell through the string-keyed Corpus.Get and evaluates the resulting
// constant expression; package expr's tests pin the compiled arithmetic
// against a tree-walking interpreter.
//
// Execute is read-only over the corpus, so one corpus serves any number of
// concurrent verification workers; a Query and a Plan are likewise safe
// for concurrent execution with distinct scratches.
//
// Disjunctive WHERE clauses (the "v2 OR v3" form produced when a claim
// aggregates several key values) are handled by disjunction.go, which
// expands them into the per-execution single-value form; expansion visits
// keys in canonical (sorted) order so downstream candidate ranking is
// deterministic regardless of how upstream producers ordered the keys.
package query
