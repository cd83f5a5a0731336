type token =
  | Ident of string
  | Int of int
  | Float of float
  | String of string
  | Symbol of string
  | Eof

exception Lex_error of string * int

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let rec go i acc =
    if i >= n then List.rev (Eof :: acc)
    else
      let c = input.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1) acc
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit input.[!j] do incr j done;
        if !j < n && input.[!j] = '.' then begin
          incr j;
          while !j < n && is_digit input.[!j] do incr j done;
          let s = String.sub input i (!j - i) in
          go !j (Float (float_of_string s) :: acc)
        end
        else
          match int_of_string_opt (String.sub input i (!j - i)) with
          | Some v -> go !j (Int v :: acc)
          | None -> raise (Lex_error ("integer literal out of range", i))
      end
      else if is_ident_char c then begin
        let j = ref i in
        while !j < n && is_ident_char input.[!j] do incr j done;
        let s = String.lowercase_ascii (String.sub input i (!j - i)) in
        go !j (Ident s :: acc)
      end
      else if c = '\'' then begin
        let buf = Buffer.create 16 in
        let j = ref (i + 1) in
        let closed = ref false in
        while (not !closed) && !j < n do
          if input.[!j] = '\'' then
            if !j + 1 < n && input.[!j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              j := !j + 2
            end
            else begin
              closed := true;
              incr j
            end
          else begin
            Buffer.add_char buf input.[!j];
            incr j
          end
        done;
        if not !closed then raise (Lex_error ("unterminated string", i));
        go !j (String (Buffer.contents buf) :: acc)
      end
      else
        let two = if i + 1 < n then String.sub input i 2 else "" in
        match two with
        | "<>" | "<=" | ">=" | "!=" -> go (i + 2) (Symbol two :: acc)
        | _ -> (
            match c with
            | '(' | ')' | ',' | '=' | '<' | '>' | '*' | '.' ->
                go (i + 1) (Symbol (String.make 1 c) :: acc)
            | _ -> raise (Lex_error (Printf.sprintf "unexpected '%c'" c, i)))
  in
  go 0 []

let pp_token fmt = function
  | Ident s -> Format.fprintf fmt "%s" s
  | Int i -> Format.fprintf fmt "%d" i
  | Float f -> Format.fprintf fmt "%g" f
  | String s -> Format.fprintf fmt "'%s'" s
  | Symbol s -> Format.fprintf fmt "%s" s
  | Eof -> Format.fprintf fmt "<eof>"
