type t = Classic | Integrated

let to_string = function Classic -> "classic" | Integrated -> "integrated"

let of_string = function
  | "classic" -> Some Classic
  | "integrated" -> Some Integrated
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (to_string t)
