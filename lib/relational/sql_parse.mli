(** A recursive-descent parser for the SQL subset printed by
    {!Sql_print}: select-from-where blocks with conjunctive WHERE
    clauses, combined by UNION, with parenthesized blocks.  Keywords are
    case-insensitive; numeric literals parse to native integers (a
    literal beyond their range is an error). *)

exception Error of string

(** @raise Error on malformed input or trailing tokens. *)
val parse : string -> Sql_ast.t
