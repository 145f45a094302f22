(* Order statistics for the reports.  [cuts] follows Python's
   statistics.quantiles with its default "exclusive" method, the
   definition the calibration protocol in README.md is stated in, so a
   spread printed here matches one computed from the printed values. *)

let sorted xs = Array.of_list (List.sort compare xs)

let median xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.median: no data"
  else if n mod 2 = 1 then d.(n / 2)
  else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.0

(* [cuts ~n xs]: the n - 1 cut points dividing [xs] into n groups. *)
let cuts ~n xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.cuts: no data"
  else if ld = 1 then List.init (n - 1) (fun _ -> d.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((d.(j - 1) *. float (n - delta)) +. (d.(j) *. float delta)) /. float n)

let quartiles xs =
  match cuts ~n:4 xs with [ q1; _; q3 ] -> (q1, q3) | _ -> assert false

let p90 xs = List.nth (cuts ~n:10 xs) 8

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio a b = if b > 0.0 then a /. b else 0.0

let geomean xs =
  exp (sum (List.map (fun x -> log (Float.max x 1e-12)) xs) /. float (List.length xs))
